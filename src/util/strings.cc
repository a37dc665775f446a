#include "util/strings.h"

#include <cstdarg>
#include <cstdio>

namespace pc {

std::string
strformat(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int needed = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (needed > 0) {
        out.resize(std::size_t(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    }
    va_end(ap2);
    return out;
}

std::string
humanBytes(Bytes b)
{
    if (b >= 1024 * kGiB)
        return strformat("%.2f TiB", double(b) / double(1024 * kGiB));
    if (b >= kGiB)
        return strformat("%.2f GiB", double(b) / double(kGiB));
    if (b >= kMiB)
        return strformat("%.2f MiB", double(b) / double(kMiB));
    if (b >= kKiB)
        return strformat("%.2f KiB", double(b) / double(kKiB));
    return strformat("%llu B", (unsigned long long)b);
}

std::string
humanTime(SimTime t)
{
    if (t >= kSecond)
        return strformat("%.3f s", toSeconds(t));
    if (t >= kMillisecond)
        return strformat("%.3f ms", toMillis(t));
    if (t >= kMicrosecond)
        return strformat("%.3f us", double(t) / double(kMicrosecond));
    return strformat("%lld ns", (long long)t);
}

std::vector<std::string>
split(std::string_view s, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool
contains(std::string_view haystack, std::string_view needle)
{
    return haystack.find(needle) != std::string_view::npos;
}

bool
startsWith(std::string_view s, std::string_view prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

std::string_view
stripUrlDecoration(std::string_view url)
{
    for (std::string_view scheme : {"https://", "http://"}) {
        if (startsWith(url, scheme)) {
            url.remove_prefix(scheme.size());
            break;
        }
    }
    if (startsWith(url, "www."))
        url.remove_prefix(4);
    return url;
}

} // namespace pc
