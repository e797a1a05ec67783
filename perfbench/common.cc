/**
 * @file
 * Shared pieces of the benchmark: clocks, spans, checks, goldens,
 * digests and the metrics every workload derives the same way.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include "ckpt/sampler.hh"
#include "harness/counters.hh"
#include "perfbench.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace svf;

double
wallNow()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;   // ru_maxrss is KiB
}

const std::vector<Machine> &
machines()
{
    static const std::vector<Machine> ms = [] {
        std::vector<Machine> v;
        v.push_back({"base", harness::baselineConfig(16)});
        uarch::MachineConfig s = harness::baselineConfig(16);
        harness::applySvf(s, 1024, 2);
        v.push_back({"svf", s});
        uarch::MachineConfig c = harness::baselineConfig(16);
        harness::applyStackCache(c, 8 * 1024, 2);
        v.push_back({"sc", c});
        return v;
    }();
    return ms;
}

std::vector<std::size_t>
permutation(std::size_t n, Rng &rng)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng() % i]);
    return p;
}

// ---------------------------------------------------------------- spans

namespace
{

thread_local int tlsOpenSpan = -1;
thread_local unsigned tlsThread = ~0u;
std::atomic<unsigned> gThreads{0};

unsigned
threadTag()
{
    if (tlsThread == ~0u)
        tlsThread = gThreads.fetch_add(1);
    return tlsThread;
}

} // anonymous namespace

SpanLog::Scope::Scope(SpanLog &l, std::string name) : log(l)
{
    if (!log.enabled())
        return;
    savedParent = tlsOpenSpan;
    id = log.open(std::move(name), savedParent);
    tlsOpenSpan = id;
}

SpanLog::Scope::~Scope()
{
    if (id < 0)
        return;
    log.close(id);
    tlsOpenSpan = savedParent;
}

int
SpanLog::open(std::string name, int parent)
{
    Span s;
    s.name = std::move(name);
    s.parent = parent;
    s.thread = threadTag();
    s.start = wallNow();
    std::lock_guard<std::mutex> g(mu);
    spans.push_back(std::move(s));
    return static_cast<int>(spans.size() - 1);
}

void
SpanLog::close(int id)
{
    double t = wallNow();
    std::lock_guard<std::mutex> g(mu);
    spans[static_cast<std::size_t>(id)].end = t;
}

double
SpanLog::total(const std::string &name) const
{
    std::lock_guard<std::mutex> g(mu);
    double t = 0;
    for (const Span &s : spans)
        if (s.name == name)
            t += s.end - s.start;
    return t;
}

std::map<std::string, double>
SpanLog::selfTimes() const
{
    std::lock_guard<std::mutex> g(mu);
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end - spans[i].start;
    // Children nest inside their parent on the same thread, so the
    // part of the parent they cover is exactly their duration.
    for (const Span &s : spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].name] += self[i];
    return out;
}

bool
SpanLog::write(const std::string &path) const
{
    std::lock_guard<std::mutex> g(mu);
    std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        return false;
    double t0 = spans.empty() ? 0 : spans.front().start;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                     i ? "," : "", s.name.c_str(), s.thread,
                     (s.start - t0) * 1e6, (s.end - s.start) * 1e6, i,
                     s.parent);
    }
    std::fprintf(f, "]}\n");
    bool ok = std::fclose(f) == 0;
    return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
}

// --------------------------------------------------------------- checks

void
Checks::note(const std::string &what)
{
    std::lock_guard<std::mutex> g(mu);
    if (printed++ < 20)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                     what.c_str());
}

void
Checks::job(bool ok, const std::string &what)
{
    ++nAttempted;
    if (!ok) {
        ++nFailed;
        note(what);
    }
}

void
Checks::other(bool ok, const std::string &what)
{
    if (!ok) {
        ++nOther;
        note(what);
    }
}

void
Checks::record(const std::string &name, std::uint64_t digest)
{
    bool clash = false;
    {
        std::lock_guard<std::mutex> g(mu);
        auto [it, fresh] = seen.emplace(name, digest);
        if (fresh)
            seenOrder.push_back(name);
        clash = it->second != digest;
    }
    other(!clash, name + ": two different results in one run");
}

std::vector<std::string>
Checks::order() const
{
    std::lock_guard<std::mutex> g(mu);
    return seenOrder;
}

std::map<std::string, std::uint64_t>
Checks::digests() const
{
    std::lock_guard<std::mutex> g(mu);
    return seen;
}

// -------------------------------------------------------------- goldens

namespace
{

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
mixBytes(std::uint64_t &h, const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= kFnvPrime;
    }
}

void
mixU64(std::uint64_t &h, std::uint64_t v)
{
    mixBytes(h, &v, sizeof v);
}

void
mixDouble(std::uint64_t &h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mixU64(h, bits);
}

void
mixString(std::uint64_t &h, const std::string &s)
{
    mixU64(h, s.size());
    mixBytes(h, s.data(), s.size());
}

} // anonymous namespace

std::uint64_t
digestResult(const RunResult &r, const std::vector<std::string> &counters)
{
    std::uint64_t h = kFnvBasis;
    for (const std::string &name : counters) {
        mixString(h, name);
        const harness::CounterDef *d = harness::findCounter(name);
        if (!d) {
            mixString(h, "<missing counter>");
            continue;
        }
        mixU64(h, d->get(r));
    }
    mixU64(h, r.completed);
    mixU64(h, r.outputOk);
    mixString(h, r.output);

    const ckpt::SampleEstimate &e = r.sampled;
    mixU64(h, e.intervals);
    mixU64(h, e.totalInsts);
    mixU64(h, e.ffInsts);
    mixU64(h, e.warmupInsts);
    mixU64(h, e.sampledInsts);
    mixU64(h, e.sampledCycles);
    mixU64(h, e.estimatedCycles);
    mixDouble(h, e.ipcMean);
    mixDouble(h, e.ipcStddev);
    // Per-counter variance, for the committed names only, so a
    // counter added to the registry later leaves old digests valid.
    const auto &cc = ckpt::coreCounters();
    for (std::size_t i = 0; i < cc.size() && i < e.counterVariance.size();
         ++i) {
        if (std::find(counters.begin(), counters.end(), cc[i].name) ==
            counters.end())
            continue;
        mixString(h, cc[i].name);
        mixDouble(h, e.counterVariance[i]);
    }
    return h;
}

bool
Goldens::load(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string kind, name, val;
        ls >> kind;
        if (kind == "counters") {
            counters.clear();
            while (ls >> name)
                counters.push_back(name);
            continue;
        }
        if (!(ls >> name >> val) ||
            (kind != "digest" && kind != "value")) {
            error = path + ":" + std::to_string(lineno) + ": malformed";
            return false;
        }
        char *end = nullptr;
        std::uint64_t v =
            std::strtoull(val.c_str(), &end, kind == "digest" ? 16 : 10);
        if (!end || *end) {
            error = path + ":" + std::to_string(lineno) + ": bad number";
            return false;
        }
        (kind == "digest" ? digests : values)[name] = v;
    }
    if (counters.empty()) {
        error = path + ": no counters line";
        return false;
    }
    return true;
}

bool
Goldens::save(const std::string &path) const
{
    std::string tmp = path + ".tmp";
    FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f,
                 "# perfbench reference data: result digests over the "
                 "counters below,\n# program lengths and full-detail "
                 "reference cycles.\n# Regenerate with: python3 "
                 "perfbench/run.py --regen\ncounters");
    for (const std::string &c : counters)
        std::fprintf(f, " %s", c.c_str());
    std::fprintf(f, "\n");
    for (const auto &[name, d] : digests)
        std::fprintf(f, "digest %s %016" PRIx64 "\n", name.c_str(), d);
    for (const auto &[name, v] : values)
        std::fprintf(f, "value %s %" PRIu64 "\n", name.c_str(), v);
    bool ok = std::fclose(f) == 0;
    return ok && std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::uint64_t
Goldens::digest(const RunResult &r) const
{
    return digestResult(r, counters);
}

bool
Goldens::expected(const std::string &name, std::uint64_t &out) const
{
    auto it = digests.find(name);
    if (it == digests.end())
        return false;
    out = it->second;
    return true;
}

bool
Goldens::value(const std::string &name, std::uint64_t &out) const
{
    auto it = values.find(name);
    if (it == values.end())
        return false;
    out = it->second;
    return true;
}

bool
Goldens::matches(const std::string &name, const RunResult &r) const
{
    std::uint64_t want = 0;
    return expected(name, want) && digest(r) == want;
}

void
Goldens::useRegistryCounters()
{
    counters.clear();
    for (const harness::CounterDef *d : harness::runCounters())
        counters.push_back(d->name());
}

void
Goldens::setDigest(const std::string &name, std::uint64_t d)
{
    digests[name] = d;
}

void
Goldens::setValue(const std::string &name, std::uint64_t v)
{
    values[name] = v;
}

// -------------------------------------------------------------- metrics

void
Report::e2e(std::string name, double v, std::string unit,
            std::string note)
{
    endToEnd.push_back({std::move(name), v, std::move(unit),
                        std::move(note)});
}

void
Report::layer(std::string name, double v, std::string unit,
              std::string note)
{
    perLayer.push_back({std::move(name), v, std::move(unit),
                        std::move(note)});
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
tailValue(std::vector<double> v, double &percentile)
{
    percentile = 100;
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    if (v.size() < 11)
        return v.back();
    std::size_t k = v.size() - 11;  // ten samples lie beyond v[k]
    percentile = 100.0 * double(k + 1) / double(v.size());
    return v[k];
}

void
PhaseTotals::add(const harness::prof::Profiler::Report &r)
{
    for (unsigned p = 0; p < unsigned(harness::prof::Phase::NumPhases);
         ++p) {
        wall[p] += r.phase[p].wallSeconds;
        count[p] += r.phase[p].count;
    }
}

double
PhaseTotals::busyWall() const
{
    double t = 0;
    for (unsigned p = 0; p < unsigned(harness::prof::Phase::NumPhases);
         ++p)
        if (p != unsigned(harness::prof::Phase::QueueWait))
            t += wall[p];
    return t;
}

double
detailedInsts(const RunResult &r)
{
    if (r.sampled.enabled())
        return double(r.sampled.warmupInsts + r.sampled.sampledInsts);
    return double(r.core.committed);
}

double
coveredInsts(const RunResult &r)
{
    if (r.sampled.enabled())
        return double(r.sampled.totalInsts);
    return double(r.core.committed);
}

void
JobTally::add(unsigned m, const RunResult &r, double wall, bool executed)
{
    cur.covered += coveredInsts(r);
    if (executed) {
        cur.machineInsts[m] += detailedInsts(r);
        cur.machineWall[m] += wall;
    }
    for (const harness::CounterDef *d : harness::runCounters())
        d->ref(sums[m]) += d->get(r);
}

void
JobTally::merge(const JobTally &o)
{
    cur.covered += o.cur.covered;
    for (unsigned m = 0; m < 3; ++m) {
        cur.machineInsts[m] += o.cur.machineInsts[m];
        cur.machineWall[m] += o.cur.machineWall[m];
        for (const harness::CounterDef *d : harness::runCounters())
            d->ref(sums[m]) += d->get(o.sums[m]);
    }
}

UnitSample
JobTally::take(double wall, double cpu)
{
    UnitSample s = cur;
    s.wall = wall;
    s.cpu = cpu;
    cur = UnitSample();
    return s;
}

void
UnitTimes::add(const std::string &unit, const UnitSample &s)
{
    units[unit].push_back(s);
}

UnitSample
UnitTimes::medianPass() const
{
    UnitSample out;
    for (const auto &[unit, v] : units) {
        auto med = [&](auto field) {
            std::vector<double> x;
            for (const UnitSample &s : v)
                x.push_back(field(s));
            return median(std::move(x));
        };
        out.wall += med([](const UnitSample &s) { return s.wall; });
        out.cpu += med([](const UnitSample &s) { return s.cpu; });
        out.covered += med([](const UnitSample &s) { return s.covered; });
        for (unsigned m = 0; m < 3; ++m) {
            out.machineInsts[m] += med(
                [m](const UnitSample &s) { return s.machineInsts[m]; });
            out.machineWall[m] += med(
                [m](const UnitSample &s) { return s.machineWall[m]; });
        }
    }
    return out;
}

namespace
{

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

} // anonymous namespace

void
reportCommon(Report &rep, const UnitSample &pass, double setupS,
             const std::vector<double> &sweepSeconds,
             double sampleErrPct)
{
    rep.e2e("setup_s", setupS, "s");
    rep.e2e("covered_mips", ratio(pass.covered, pass.wall) / 1e6,
            "MIPS", "median pass");
    rep.e2e("cpu_s", pass.cpu, "s", "process CPU, median pass");
    rep.e2e("peak_rss_mb", peakRssMb(), "MB");
    static const char *const names[3] = {
        "detailed_mips_base", "detailed_mips_svf", "detailed_mips_sc"};
    for (unsigned m = 0; m < 3; ++m)
        rep.e2e(names[m],
                ratio(pass.machineInsts[m], pass.machineWall[m]) / 1e6,
                "MIPS", "median pass");
    rep.e2e("sample_err_pct", sampleErrPct, "%");
    std::vector<double> ms;
    for (double s : sweepSeconds)
        ms.push_back(s * 1e3);
    char note[96];
    std::snprintf(note, sizeof note, "%zu sweeps", ms.size());
    rep.e2e("sweep_p50_ms", median(ms), "ms", note);
    double pct = 0;
    double tail = tailValue(ms, pct);
    std::snprintf(note, sizeof note, "p%.1f of %zu sweeps", pct,
                  ms.size());
    rep.e2e("sweep_tail_ms", tail, "ms", note);
}

void
reportTallyLayers(Report &rep, const JobTally &t)
{
    const RunResult &base = t.sums[0], &sv = t.sums[1], &sc = t.sums[2];
    double committed = 0, squashes = 0, steps = 0, loads = 0;
    for (const RunResult &s : t.sums) {
        committed += double(s.core.committed);
        squashes += double(s.core.squashes);
        steps += double(s.core.disambigScanSteps);
        loads += double(s.core.loads);
    }
    rep.layer("uarch.squash_per_kinst", 1e3 * ratio(squashes, committed),
              "1/kinst");
    rep.layer("uarch.disambig_steps_per_load", ratio(steps, loads),
              "steps/load");

    double morphed = double(sv.svfFastLoads + sv.svfFastStores);
    double rerouted = double(sv.svfReroutedLoads + sv.svfReroutedStores);
    double misses = double(sv.svfWindowMisses);
    double stackRefs = morphed + rerouted + misses +
                       double(sv.svfRefsWhileDisabled);
    rep.layer("core.morph_frac", ratio(morphed, stackRefs), "frac");
    rep.layer("core.reroute_per_kinst",
              1e3 * ratio(rerouted, double(sv.core.committed)), "1/kinst");
    rep.layer("core.window_miss_frac", ratio(misses, stackRefs), "frac");

    rep.layer("mem.dl1_hit_frac",
              ratio(double(base.dl1Hits),
                    double(base.dl1Hits + base.dl1Misses)),
              "frac");
    rep.layer("mem.l2_hit_frac",
              ratio(double(base.l2Hits),
                    double(base.l2Hits + base.l2Misses)),
              "frac");
    rep.layer("mem.sc_hit_frac",
              ratio(double(sc.scHits), double(sc.scHits + sc.scMisses)),
              "frac");
}

void
reportPhaseLayers(Report &rep, const PhaseTotals &ph,
                  double sampledProducerInsts, double warmReplayInsts,
                  const PassWalls &walls, unsigned workers)
{
    const double tracedWall = walls.tracedTotal();
    const double passes = double(walls.traced.size());
    using harness::prof::Phase;
    rep.layer("sim.runfast_mips",
              ratio(sampledProducerInsts, ph.wallOf(Phase::FastForward)) /
                  1e6,
              "MIPS");
    rep.layer("uarch.warm_mips",
              ratio(warmReplayInsts, ph.wallOf(Phase::WarmReplay)) / 1e6,
              "MIPS");
    rep.layer("ckpt.capture_ms",
              1e3 * ratio(ph.wallOf(Phase::SnapshotCapture),
                          double(ph.countOf(Phase::SnapshotCapture))),
              "ms");
    rep.layer("ckpt.restore_ms",
              1e3 * ratio(ph.wallOf(Phase::SnapshotRestore),
                          double(ph.countOf(Phase::SnapshotRestore))),
              "ms");
    rep.layer("harness.queue_wait_s",
              ratio(ph.wallOf(Phase::QueueWait), passes), "s",
              "per pass");
    rep.layer("harness.worker_busy_frac",
              ratio(ph.busyWall(), double(workers) * tracedWall), "frac");
}

// ------------------------------------------------------ jobs and checks

std::string
goldenOutput(Ctx &ctx, const std::string &workload,
             const std::string &input, std::uint64_t scale)
{
    SpanLog::Scope s(ctx.spans, "workloads.golden");
    return workloads::workload(workload).expected(input, scale);
}

isa::Program
buildProgram(Ctx &ctx, const std::string &workload,
             const std::string &input, std::uint64_t scale)
{
    SpanLog::Scope s(ctx.spans, "workloads.build");
    return workloads::workload(workload).build(input, scale);
}

bool
checkJob(Ctx &ctx, const std::string &name, const RunResult &r,
         const std::string &golden, bool mustComplete)
{
    std::string why;
    if (r.completed) {
        if (!r.outputOk || r.output != golden)
            why = "program output differs from the golden model";
    } else if (mustComplete) {
        why = "program did not complete";
    }
    const std::uint64_t got = ctx.goldens.digest(r);
    ctx.checks.record(name, got);
    std::uint64_t want = 0;
    if (!ctx.goldens.expected(name, want))
        why += why.empty() ? "no committed digest" : "; no committed digest";
    else if (got != want)
        why += why.empty() ? "counter digest differs from the committed one"
                           : "; counter digest differs";
    ctx.checks.job(why.empty(), name + ": " + why);
    return why.empty();
}

RunSetup
makeSetup(const std::string &workload, const std::string &input,
          std::uint64_t scale, std::uint64_t maxInsts, unsigned m)
{
    RunSetup s;
    s.workload = workload;
    s.input = input;
    s.scale = scale;
    s.maxInsts = maxInsts;
    s.machine = machines()[m].cfg;
    return s;
}

void
RunnerStats::sweep(double wall,
                   const std::vector<harness::JobOutcome> &outs,
                   unsigned threads)
{
    double exec = 0;
    for (const harness::JobOutcome &o : outs)
        exec += o.wallSeconds;
    dispatchSeconds += std::max(0.0, wall - exec / double(threads));
    jobs += outs.size();
}

void
reportHarnessLayers(Report &rep, const RunnerStats &rs,
                    double cacheLoadUs, double cacheStoreUs)
{
    rep.layer("harness.dispatch_us_per_job",
              1e6 * ratio(rs.dispatchSeconds, double(rs.jobs)), "us");
    rep.layer("harness.exec_per_key",
              ratio(double(rs.executions), double(rs.distinctExecuted)),
              "ratio");
    rep.layer("ckpt.disk_hit_frac",
              ratio(double(rs.diskHits), double(rs.jobs)), "frac");
    rep.layer("ckpt.cache_load_us", cacheLoadUs, "us");
    rep.layer("ckpt.cache_store_us", cacheStoreUs, "us");
}

void
reportSetupLayers(Report &rep, const Ctx &ctx)
{
    double reps = double(ctx.setupReps);
    rep.layer("workloads.build_ms",
              1e3 * ctx.spans.total("workloads.build") / reps, "ms",
              "per set-up");
    rep.layer("workloads.golden_ms",
              1e3 * ctx.spans.total("workloads.golden") / reps, "ms",
              "per set-up");
}

double
PassWalls::tracedTotal() const
{
    double t = 0;
    for (double w : traced)
        t += w;
    return t;
}

void
reportTraceOverhead(Report &rep, const PassWalls &walls)
{
    double u = median(walls.plain);
    rep.layer("trace.overhead_pct",
              u > 0 && !walls.traced.empty()
                  ? 100.0 * (median(walls.traced) / u - 1)
                  : 0.0,
              "%", "traced vs untraced passes of the same run");
}

TracedPass::TracedPass(Ctx &c, PhaseTotals &t, bool o)
    : ctx(c), totals(t), on(o)
{
    if (!on)
        return;
    ctx.spans.enable(true);
    harness::prof::Profiler::instance().enable(true);
}

TracedPass::~TracedPass()
{
    if (!on)
        return;
    auto &prof = harness::prof::Profiler::instance();
    totals.add(prof.report());
    prof.enable(false);
    ctx.spans.enable(false);
}

} // namespace perfbench
