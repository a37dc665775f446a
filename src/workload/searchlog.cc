#include "workload/searchlog.h"

#include <algorithm>

namespace pc::workload {

void
SearchLog::sortByTime()
{
    std::stable_sort(records_.begin(), records_.end(),
                     [](const LogRecord &a, const LogRecord &b) {
                         return a.time < b.time;
                     });
}

} // namespace pc::workload
