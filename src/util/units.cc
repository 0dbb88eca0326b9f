#include "util/units.h"

#include <cmath>
#include <cstdio>

namespace vtrain {

std::string
formatBytes(double bytes)
{
    static const char *suffixes[] = {"B", "KB", "MB", "GB", "TB", "PB"};
    int idx = 0;
    while (std::abs(bytes) >= 1e3 && idx < 5) {
        bytes /= 1e3;
        ++idx;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, suffixes[idx]);
    return buf;
}

std::string
formatSeconds(double sec)
{
    char buf[64];
    if (sec >= kSecPerDay) {
        std::snprintf(buf, sizeof(buf), "%.2f days", sec / kSecPerDay);
    } else if (sec >= kSecPerHour) {
        std::snprintf(buf, sizeof(buf), "%.2f h", sec / kSecPerHour);
    } else if (sec >= 1.0) {
        std::snprintf(buf, sizeof(buf), "%.3f s", sec);
    } else if (sec >= 1e-3) {
        std::snprintf(buf, sizeof(buf), "%.3f ms", sec * 1e3);
    } else {
        std::snprintf(buf, sizeof(buf), "%.1f us", sec * 1e6);
    }
    return buf;
}

std::string
formatDollars(double dollars)
{
    char buf[64];
    if (std::abs(dollars) >= 1e6) {
        std::snprintf(buf, sizeof(buf), "$%.2fM", dollars / 1e6);
    } else if (std::abs(dollars) >= 1e3) {
        std::snprintf(buf, sizeof(buf), "$%.1fK", dollars / 1e3);
    } else {
        std::snprintf(buf, sizeof(buf), "$%.2f", dollars);
    }
    return buf;
}

} // namespace vtrain
