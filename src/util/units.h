/**
 * @file
 * Unit constants and human-readable formatting helpers.
 *
 * vTrain uses the following canonical units throughout:
 *   time      -> microseconds (double) inside the simulator,
 *                seconds/days at the reporting layer,
 *   data size -> bytes (double when fed to latency models),
 *   bandwidth -> bytes per second,
 *   compute   -> FLOPs (double) and FLOP/s.
 */
#ifndef VTRAIN_UTIL_UNITS_H
#define VTRAIN_UTIL_UNITS_H

#include <cstdint>
#include <string>

namespace vtrain {

constexpr double kKiB = 1024.0;
constexpr double kMiB = 1024.0 * kKiB;
constexpr double kGiB = 1024.0 * kMiB;

constexpr double kKB = 1e3;
constexpr double kMB = 1e6;
constexpr double kGB = 1e9;

constexpr double kKilo = 1e3;
constexpr double kMega = 1e6;
constexpr double kGiga = 1e9;
constexpr double kTera = 1e12;
constexpr double kPeta = 1e15;
constexpr double kExa = 1e18;

constexpr double kUsecPerSec = 1e6;
constexpr double kSecPerHour = 3600.0;
constexpr double kSecPerDay = 86400.0;
constexpr double kHoursPerDay = 24.0;

/** Converts microseconds to seconds. */
constexpr double
usecToSec(double usec)
{
    return usec / kUsecPerSec;
}

/** Converts seconds to microseconds. */
constexpr double
secToUsec(double sec)
{
    return sec * kUsecPerSec;
}

/** Converts seconds to days. */
constexpr double
secToDays(double sec)
{
    return sec / kSecPerDay;
}

/** Formats a byte count as "512.0 MB"-style text. */
std::string formatBytes(double bytes);

/** Formats a duration given in seconds as "42.59 s" / "12.3 ms" text. */
std::string formatSeconds(double sec);

/** Formats a dollar amount as "$9.01M" / "$11,200"-style text. */
std::string formatDollars(double dollars);

} // namespace vtrain

#endif // VTRAIN_UTIL_UNITS_H
