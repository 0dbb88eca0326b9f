/**
 * @file
 * Shared plumbing of the benchmark driver: arguments, clocks, result
 * digests, failure accounting, the span ledger of traced runs, and the
 * result printer (human report, then the one-line JSON result).
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/result.h"

namespace perfbench {

/** Command-line arguments (see main.cc for the flags). */
struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs: the driver self-check, not a measurement. */
    bool smoke = false;
    size_t dse_threads = 1;
    size_t batch_threads = 2;
    size_t serve_threads = 2;
    size_t client_threads = 2;   //!< closed-loop connections
    size_t open_connections = 8; //!< open-loop connections
};

double nowSeconds();        //!< steady clock
double processCpuSeconds(); //!< CLOCK_PROCESS_CPUTIME_ID
double peakRssMb();         //!< getrusage high-water mark, MiB

/** Nearest-rank percentile, q in [0, 1]; 0 for an empty input. */
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/**
 * Order-sensitive digest over every SimulationResult field except
 * sim_wall_seconds (the host time the simulation took).
 */
class Digest
{
  public:
    void add(const vtrain::SimulationResult &r);
    uint64_t value() const { return state_; }

  private:
    uint64_t state_ = 0xcbf29ce484222325ull;
};

/** True when every field but sim_wall_seconds is bit-identical. */
bool sameResult(const vtrain::SimulationResult &a,
                const vtrain::SimulationResult &b);

/** Outcome counts of one phase of a workload. */
struct PhaseCounts {
    uint64_t attempted = 0;
    uint64_t succeeded = 0;
    uint64_t transport = 0; //!< connect/send/receive failed
    uint64_t non_2xx = 0;   //!< HTTP status outside 200..299
    uint64_t decode = 0;    //!< response body did not decode
    uint64_t mismatch = 0;  //!< answer differs from the reference

    uint64_t failed() const
    {
        return transport + non_2xx + decode + mismatch;
    }
    void merge(const PhaseCounts &o);
};

/**
 * Spans recorded by the benchmark's own code around calls into the
 * library's public functions (one thread).  Self time of a span is its
 * duration minus the time its direct children cover.
 */
class Ledger
{
  public:
    struct Row {
        uint64_t count = 0;
        double total_s = 0.0;
        double self_s = 0.0;
    };

    /** RAII span; nests under the innermost open span. */
    class Span
    {
      public:
        Span(Ledger *ledger, const char *name);
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Ledger *ledger_;
        size_t index_;
    };

    const Row &row(const std::string &name) const;
    double selfSeconds(const std::string &name) const
    {
        return row(name).self_s;
    }

    /** Sum of self time over every span name. */
    double attributedSeconds() const;

    /** Prints the ledger: one line per span name, then coverage of
     *  `traced_wall_s` and the tracing overhead against
     *  `untraced_wall_s` (same work, no spans; negative: not measured). */
    void print(const std::string &title, double traced_wall_s,
               double untraced_wall_s) const;

  private:
    struct Open {
        std::string name;
        double start = 0.0;
        double child_s = 0.0;
    };
    std::vector<Open> stack_;
    std::map<std::string, Row> rows_;
};

/** Everything one run reports. */
struct Report {
    std::string workload;
    std::map<std::string, PhaseCounts> phases;
    /** Failed checks outside the request phases (digest, oracle). */
    uint64_t check_failures = 0;
    std::vector<std::string> notes;

    struct Metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string &line) { notes.push_back(line); }
};

/**
 * Prints the context stamp, the phase accounting, notes and metrics,
 * then the final JSON line.  @return the process exit code.
 */
int printReport(const Args &args, const Report &report);

/** "1.2345" with enough digits to round-trip. */
std::string fmtNumber(double v);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
