/**
 * @file
 * Shared declarations of the repository benchmark (see README.md).
 *
 * The benchmark drives the simulator only through surfaces the
 * project keeps: harness::Runner plans, RunSetup, the workload
 * registry, the counter registry, ckpt::ResultCache/Snapshot, the
 * prof=1 phase report, and the public functions of the sim, uarch,
 * core and mem layers that the traced run replays.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/prof.hh"
#include "harness/runner.hh"
#include "isa/program.hh"

namespace perfbench
{

using svf::harness::RunResult;
using svf::harness::RunSetup;

/** Wall clock, seconds (steady). */
double wallNow();

/** CPU seconds consumed by the whole process so far. */
double processCpuSeconds();

/** Peak resident set of the process, MiB. */
double peakRssMb();

/** One of the three 16-wide Table 2 machines every workload uses. */
struct Machine
{
    const char *name;   // "base", "svf", "sc"
    svf::uarch::MachineConfig cfg;
};

/** base = baselineConfig(16); svf = +1024-entry 2-port SVF;
 *  sc = +8 KB 2-port stack cache. */
const std::vector<Machine> &machines();

/** Seeded generator: the only source of per-seed choices. */
using Rng = std::mt19937_64;

/** A seed-determined permutation of 0..n-1 (Fisher-Yates). */
std::vector<std::size_t> permutation(std::size_t n, Rng &rng);

/**
 * In-memory span log. A span is a named interval with a parent (the
 * span open on the same thread when it started) and a thread tag.
 * Recording is off unless the run is traced; spans are written out
 * once, when the run ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
        unsigned thread = 0;
    };

    void enable(bool on) { _enabled = on; }
    bool enabled() const { return _enabled; }

    /** RAII span; a no-op when the log is disabled. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog &log;
        int id = -1;
        int savedParent = -1;
    };

    /** Summed duration of every span called @p name, seconds. */
    double total(const std::string &name) const;
    /** Summed self time (duration minus child coverage) per name. */
    std::map<std::string, double> selfTimes() const;

    /** Write every span as Chrome trace-event JSON; false on error. */
    bool write(const std::string &path) const;

  private:
    int open(std::string name, int parent);
    void close(int id);

    bool _enabled = false;
    mutable std::mutex mu;
    std::vector<Span> spans;
};

/** Outcome bookkeeping shared by every check of a run. */
class Checks
{
  public:
    /** Count one attempted job; @p ok false counts it as failed. */
    void job(bool ok, const std::string &what);
    /** A check that is not a job (it fails the run, not a job). */
    void other(bool ok, const std::string &what);

    /**
     * Remember the digest a job name produced; a name that produces
     * two different digests in one run is an inconsistency.
     */
    void record(const std::string &name, std::uint64_t digest);
    /** Job names in first-checked order, and their digests. */
    std::vector<std::string> order() const;
    std::map<std::string, std::uint64_t> digests() const;

    std::uint64_t attempted() const { return nAttempted; }
    std::uint64_t failed() const { return nFailed; }
    bool correct() const { return nFailed == 0 && nOther == 0; }

  private:
    void note(const std::string &what);

    std::atomic<std::uint64_t> nAttempted{0};
    std::atomic<std::uint64_t> nFailed{0};
    std::atomic<std::uint64_t> nOther{0};
    mutable std::mutex mu;
    unsigned printed = 0;
    std::vector<std::string> seenOrder;
    std::map<std::string, std::uint64_t> seen;
};

/**
 * The committed reference data (goldens.txt): the counter names the
 * digests cover, a digest of each job setup's result (by benchmark
 * name), program lengths and full-detail reference cycles.
 */
class Goldens
{
  public:
    bool load(const std::string &path, std::string &error);
    bool save(const std::string &path) const;

    /** Digest over the committed counter list (see digestResult). */
    std::uint64_t digest(const RunResult &r) const;

    /** Committed digest of @p name; false when absent. */
    bool expected(const std::string &name, std::uint64_t &out) const;
    /** Full-detail reference cycles / program lengths by name. */
    bool value(const std::string &name, std::uint64_t &out) const;

    /** Check @p r against the committed digest of @p name. */
    bool matches(const std::string &name, const RunResult &r) const;

    /** @name Regeneration */
    /// @{
    void useRegistryCounters();
    void setDigest(const std::string &name, std::uint64_t d);
    void setValue(const std::string &name, std::uint64_t v);
    /// @}

    const std::vector<std::string> &counterNames() const
    {
        return counters;
    }

  private:
    std::vector<std::string> counters;
    std::map<std::string, std::uint64_t> digests;
    std::map<std::string, std::uint64_t> values;
};

/**
 * Digest of everything a run result reports: every counter named in
 * @p counters (a missing name poisons the digest, so a removed counter
 * fails the check), completion, the output check, the program output
 * and the sampled estimate.
 */
std::uint64_t digestResult(const RunResult &r,
                           const std::vector<std::string> &counters);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::string note;   // human-readable context (printed, not JSON)
};

/** Everything a workload run reports. */
struct Report
{
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer;

    void e2e(std::string name, double v, std::string unit,
             std::string note = "");
    void layer(std::string name, double v, std::string unit,
               std::string note = "");
};

/** Run-wide settings and shared state. */
struct Ctx
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;     // tiny budgets (self-test)
    unsigned nproc = 1;
    unsigned setupReps = 5;
    std::string outDir = ".bench_out";
    Goldens goldens;
    SpanLog spans;
    Checks checks;
};

/** @name Sweep latencies */
/// @{
/** Median of @p v (0 when empty). */
double median(std::vector<double> v);
/**
 * The highest percentile with at least ten samples beyond it, and
 * the value there (the maximum when there are fewer than 11).
 */
double tailValue(std::vector<double> v, double &percentile);
/// @}

/** Accumulated prof=1 phase totals over the traced passes. */
struct PhaseTotals
{
    double wall[static_cast<unsigned>(
        svf::harness::prof::Phase::NumPhases)] = {};
    std::uint64_t count[static_cast<unsigned>(
        svf::harness::prof::Phase::NumPhases)] = {};

    void add(const svf::harness::prof::Profiler::Report &r);
    double wallOf(svf::harness::prof::Phase p) const
    {
        return wall[static_cast<unsigned>(p)];
    }
    std::uint64_t countOf(svf::harness::prof::Phase p) const
    {
        return count[static_cast<unsigned>(p)];
    }
    /** Wall time of every phase that does work (all but QueueWait). */
    double busyWall() const;
};

/** Walls of a run's passes, split by whether they were traced. */
struct PassWalls
{
    std::vector<double> plain, traced;

    std::size_t count() const { return plain.size() + traced.size(); }
    double tracedTotal() const;
};

/** The timed quantities of one unit of repeated work. */
struct UnitSample
{
    double wall = 0;
    double cpu = 0;
    /** Instructions the returned results cover. */
    double covered = 0;
    /** Per machine: detailed-core instructions and executed wall. */
    double machineInsts[3] = {};
    double machineWall[3] = {};
};

/**
 * Timings by unit. A unit is work that every pass repeats
 * identically (one sweep, or a pair of rounds). Host load on a shared
 * machine comes in bursts, so the benchmark takes each field's median
 * over a unit's repeats and adds those medians up over the units. The
 * result is one pass with the bursts filtered out.
 */
class UnitTimes
{
  public:
    void add(const std::string &unit, const UnitSample &s);
    UnitSample medianPass() const;

  private:
    std::map<std::string, std::vector<UnitSample>> units;
};

/** Per-job bookkeeping every workload folds its outcomes into. */
struct JobTally
{
    /** Counter sums per machine (for the per-layer ratios). */
    RunResult sums[3];
    /** The unit in progress (see take()). */
    UnitSample cur;

    void add(unsigned machine, const RunResult &r, double wall,
             bool executed);
    void merge(const JobTally &o);
    /** The unit in progress with @p wall and @p cpu; starts anew. */
    UnitSample take(double wall, double cpu);
};

/** Detailed-core instructions of one result (sampled: warmup+window). */
double detailedInsts(const RunResult &r);
/** Instructions one result covers (sampled: the whole program). */
double coveredInsts(const RunResult &r);

/** End-to-end metrics every workload derives from its tally. */
void reportCommon(Report &rep, const UnitSample &pass, double setupS,
                  const std::vector<double> &sweepSeconds,
                  double sampleErrPct);

/** Per-layer metrics every workload derives from its tally. */
void reportTallyLayers(Report &rep, const JobTally &t);

/** Per-layer metrics from the traced passes' prof report. */
void reportPhaseLayers(Report &rep, const PhaseTotals &ph,
                       double sampledProducerInsts,
                       double warmReplayInsts, const PassWalls &walls,
                       unsigned workers);

/** Harness-level counts every workload gathers from its runners. */
struct RunnerStats
{
    double dispatchSeconds = 0; // sweep wall not covered by execution
    std::uint64_t jobs = 0;
    std::uint64_t executions = 0;
    std::uint64_t distinctExecuted = 0; // summed per pass
    std::uint64_t diskHits = 0;

    /** Fold one sweep: its wall, outcomes and runner thread count. */
    void sweep(double wall,
               const std::vector<svf::harness::JobOutcome> &outs,
               unsigned threads);
};

/** Per-layer harness and result-cache metrics. */
void reportHarnessLayers(Report &rep, const RunnerStats &rs,
                         double cacheLoadUs, double cacheStoreUs);

/** Set-up span metrics (workloads.build_ms, workloads.golden_ms). */
void reportSetupLayers(Report &rep, const Ctx &ctx);

/** trace.overhead_pct: traced vs untraced pass wall, matched work. */
void reportTraceOverhead(Report &rep, const PassWalls &walls);

/**
 * Arms the span log and the prof=1 phase profiler for one traced
 * pass (a no-op when @p on is false) and folds the phase report into
 * @p totals when the pass ends.
 */
class TracedPass
{
  public:
    TracedPass(Ctx &ctx, PhaseTotals &totals, bool on);
    ~TracedPass();
    TracedPass(const TracedPass &) = delete;
    TracedPass &operator=(const TracedPass &) = delete;

  private:
    Ctx &ctx;
    PhaseTotals &totals;
    bool on;
};

/**
 * Run @p pass(traced) until ctx.seconds have passed: at least once, or
 * twice in a traced run, which alternates untraced and traced passes
 * over the same work (TracedPass arms the traced ones).
 */
template <typename Fn>
PassWalls
repeatPasses(Ctx &ctx, PhaseTotals &phases, Fn &&pass)
{
    PassWalls w;
    const std::size_t minPasses = ctx.trace ? 2 : 1;
    const double t0 = wallNow();
    while (w.count() < minPasses || wallNow() - t0 < ctx.seconds) {
        const bool traced = ctx.trace && w.count() % 2 == 1;
        const double p0 = wallNow();
        {
            TracedPass tp(ctx, phases, traced);
            pass(traced);
        }
        const double pw = wallNow() - p0;
        std::fprintf(stderr, "perfbench: pass %zu%s: %.3f s\n", w.count(),
                     traced ? " (traced)" : "", pw);
        (traced ? w.traced : w.plain).push_back(pw);
    }
    return w;
}

/**
 * Set-up timing: run @p fn ctx.setupReps times and return the
 * median wall seconds (the last repetition's state is kept).
 */
template <typename Fn>
double
timedSetup(const Ctx &ctx, Fn &&fn)
{
    std::vector<double> t;
    for (unsigned i = 0; i < ctx.setupReps; ++i) {
        double t0 = wallNow();
        fn();
        t.push_back(wallNow() - t0);
    }
    return median(t);
}

/** The golden output of a registry program (spanned). */
std::string goldenOutput(Ctx &ctx, const std::string &workload,
                         const std::string &input, std::uint64_t scale);
/** Build a registry program (spanned). */
svf::isa::Program buildProgram(Ctx &ctx, const std::string &workload,
                               const std::string &input,
                               std::uint64_t scale);

/**
 * Check one finished job: golden output when it completed (and
 * completion when @p mustComplete), and its digest against the
 * committed one. Counts it in ctx.checks.
 */
bool checkJob(Ctx &ctx, const std::string &name, const RunResult &r,
              const std::string &golden, bool mustComplete);

/**
 * The sampled estimator's error probe: the mcf cold plan on the three
 * machines against the committed full-detail cycles (percent, mean).
 * Run by the workloads that have no sampled jobs of their own.
 */
double sampleErrorProbe(Ctx &ctx);

/** @name Workloads */
/// @{
Report runDetailed(Ctx &ctx);
Report runSampled(Ctx &ctx);
Report runSharedCache(Ctx &ctx);
/// @}

/** Program + budget the traced layer replays walk. */
struct ReplayProgram
{
    svf::isa::Program prog;
    std::uint64_t maxInsts = 0;
    /** Sample plan whose snapshot points the ckpt replay captures
     *  (disabled = no snapshot replay). */
    svf::ckpt::SamplePlan plan;
};

/**
 * Traced layer replays (sim, uarch, core, mem, ckpt snapshot, harness
 * key): direct calls into each layer's public functions, each call
 * spanned, reported as per-layer metrics.
 */
void replayLayers(Ctx &ctx, Report &rep,
                  const std::vector<ReplayProgram> &progs,
                  const std::vector<RunSetup> &setups);

/** Run ctx.workload and return its report. */
Report runWorkload(Ctx &ctx);

/**
 * The metrics the run prints (per-layer when traced, else end-to-end)
 * in BENCHMARK.json order; false when the set differs from it.
 */
bool selectMetrics(const Ctx &ctx, const Report &rep,
                   std::vector<Metric> &out);

/** @name Regeneration and self-tests */
/// @{
int regenerate(Ctx &ctx, const std::string &path);
int selfTest(Ctx &ctx);
/// @}

/** @name Job naming and setups (shared with regeneration) */
/// @{
/** Scale choices for detailed kernels (seed picks one). */
std::vector<std::uint64_t> detailedScales(const std::string &kernel,
                                          bool smoke);
std::string detailedName(const std::string &kernel,
                         const std::string &input, std::uint64_t scale,
                         const char *machine);

/** The sampled programs and plans. */
const std::vector<std::string> &sampledPrograms();
std::uint64_t sampledScale(const std::string &prog, bool smoke);
svf::ckpt::SamplePlan sampledPlan(bool pwarm, bool smoke);
std::string sampledName(const std::string &prog, bool pwarm,
                        const char *machine, bool smoke);
std::string lengthName(const std::string &prog, bool smoke);
std::string refCyclesName(const std::string &prog, const char *machine,
                          bool smoke);

/** Job budgets of the shared_cache figures (own 0, shared, own 1). */
std::vector<std::uint64_t> sharedBudgets(bool smoke);
std::string sharedName(const std::string &kernel, std::uint64_t budget,
                       const char *machine);

/** A RunSetup for a registry program on machine @p m. */
RunSetup makeSetup(const std::string &workload,
                   const std::string &input, std::uint64_t scale,
                   std::uint64_t maxInsts, unsigned m);
/// @}

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
