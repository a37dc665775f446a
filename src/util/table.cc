#include "util/table.h"

#include <algorithm>
#include <iostream>

#include "util/logging.h"

namespace pc {

AsciiTable::AsciiTable(std::string title)
    : title_(std::move(title))
{
}

void
AsciiTable::header(std::vector<std::string> cols)
{
    pc_assert(!cols.empty(), "table header needs at least one column");
    header_ = std::move(cols);
}

void
AsciiTable::row(std::vector<std::string> cells)
{
    pc_assert(cells.size() == header_.size(),
              "row width ", cells.size(), " != header width ",
              header_.size());
    rows_.push_back(std::move(cells));
}

void
AsciiTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    for (std::size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &r : rows_)
        for (std::size_t c = 0; c < r.size(); ++c)
            widths[c] = std::max(widths[c], r[c].size());

    auto rule = [&]() {
        os << '+';
        for (std::size_t w : widths)
            os << std::string(w + 2, '-') << '+';
        os << '\n';
    };
    auto line = [&](const std::vector<std::string> &cells) {
        os << '|';
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << ' ' << cells[c]
               << std::string(widths[c] - cells[c].size(), ' ') << " |";
        }
        os << '\n';
    };

    if (!title_.empty())
        os << "== " << title_ << " ==\n";
    rule();
    line(header_);
    rule();
    for (const auto &r : rows_)
        line(r);
    rule();
}

void
AsciiTable::print() const
{
    print(std::cout);
}

} // namespace pc
