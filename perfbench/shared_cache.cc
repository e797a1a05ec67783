/**
 * @file
 * The `shared_cache` workload: two threads in one process, each
 * rendering figure-shaped sweeps (kernels x the three machines, short
 * budgets) through a fresh Runner(jobs=nproc/2, cacheDir=DIR) per
 * sweep, as separate CLI invocations sharing cache=DIR would.
 *
 * A figure is all twelve kernels x the three machines at one budget;
 * the shared figure and each thread's own figure differ in budget.
 * Each round starts from a fresh DIR pre-written (in set-up) with a
 * seed-chosen half of every figure's keys; odd rounds use the other
 * half, so every two rounds execute every key and the executed mix
 * does not depend on the seed. Each thread renders the shared figure,
 * then its own, three times over: the first render of each misses on
 * half its keys (execute, then store), the re-renders hit (load).
 * The threads start every sweep together, so each shared miss is in
 * flight in both at once -- the traffic in-flight dedup in the cache
 * would remove. Re-renders dominate, as they do when a user
 * re-renders sweeps from cache=DIR.
 */

#include <barrier>
#include <filesystem>
#include <set>
#include <system_error>
#include <thread>

#include <unistd.h>

#include "ckpt/result_cache.hh"
#include "perfbench.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace svf;
namespace fs = std::filesystem;

std::vector<std::uint64_t>
sharedBudgets(bool smoke)
{
    if (smoke)
        return {4'000, 5'000, 6'000};
    return {30'000, 32'000, 34'000};
}

std::string
sharedName(const std::string &kernel, std::uint64_t budget,
           const char *machine)
{
    return "shared/" + kernel + "/b" + std::to_string(budget) + "/" +
           machine;
}

namespace
{

constexpr unsigned kRenders = 3;

struct Key
{
    std::string name;
    RunSetup setup;
    std::uint64_t key = 0;  // setup.key()
    unsigned machine = 0;
    std::string golden;     // output if the job ever ran to completion
};

/** Twelve kernels x three machines at one budget, in render order. */
using Figure = std::vector<Key>;

/** Removes a directory tree when it goes out of scope. */
class DirGuard
{
  public:
    explicit DirGuard(fs::path p) : path(std::move(p))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~DirGuard()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
    DirGuard(const DirGuard &) = delete;
    DirGuard &operator=(const DirGuard &) = delete;

    const fs::path path;
};

/** What one thread of one round produced. */
struct ThreadResult
{
    JobTally tally;
    RunnerStats rs;
    std::vector<double> sweeps;
    std::vector<std::pair<std::string, std::uint64_t>> executed, cached;
    std::set<std::uint64_t> executedKeys;
};

} // anonymous namespace

Report
runSharedCache(Ctx &ctx)
{
    const std::vector<std::uint64_t> budgets = sharedBudgets(ctx.smoke);
    const unsigned perRunner = std::max(1u, ctx.nproc / 2);
    const fs::path base =
        fs::path(ctx.outDir) /
        ("shared_cache-" + std::to_string(::getpid()));
    DirGuard baseGuard(base);
    const fs::path templ[2] = {base / "template0", base / "template1"};

    std::vector<ReplayProgram> progs;
    Figure shared, own[2];
    std::map<std::string, std::uint64_t> setupDigest;
    ctx.spans.enable(ctx.trace);
    double setupS = timedSetup(ctx, [&] {
        Rng rng(ctx.seed);
        progs.clear();
        const auto &specs = workloads::allWorkloads();
        std::vector<std::size_t> ko = permutation(specs.size(), rng);
        Figure *figs[3] = {&own[0], &shared, &own[1]};
        for (Figure *f : figs)
            f->clear();
        for (std::size_t i : ko) {
            const workloads::WorkloadSpec &spec = specs[i];
            const std::string &input = spec.inputs.front();
            progs.push_back({buildProgram(ctx, spec.name, input, 0),
                             budgets.back(),
                             {}});
            const std::string golden =
                goldenOutput(ctx, spec.name, input, spec.defaultScale);
            for (unsigned f = 0; f < 3; ++f)
                for (unsigned m = 0; m < machines().size(); ++m)
                    figs[f]->push_back(
                        {sharedName(spec.name, budgets[f],
                                    machines()[m].name),
                         makeSetup(spec.name, input, 0, budgets[f], m),
                         0, m, golden});
        }

        // Template 0 holds a seed-chosen half of every figure's keys,
        // template 1 the other half.
        harness::ExperimentPlan plan[2];
        std::vector<const Key *> planned[2];
        for (Figure *f : figs) {
            std::vector<std::size_t> pick = permutation(f->size(), rng);
            for (std::size_t i = 0; i < f->size(); ++i) {
                const unsigned t = i < f->size() / 2 ? 0 : 1;
                const Key &k = (*f)[pick[i]];
                plan[t].add(k.name, k.setup);
                planned[t].push_back(&k);
            }
        }
        for (Figure *f : figs)
            for (Key &k : *f)
                k.key = k.setup.key();
        setupDigest.clear();
        for (unsigned t = 0; t < 2; ++t) {
            fs::remove_all(templ[t]);
            fs::create_directories(templ[t]);
            harness::RunnerOptions ro;
            ro.jobs = ctx.nproc;
            ro.cacheDir = templ[t].string();
            harness::Runner runner(ro);
            std::vector<harness::JobOutcome> outs = runner.run(plan[t]);
            for (std::size_t i = 0; i < outs.size(); ++i)
                setupDigest[planned[t][i]->name] =
                    ctx.goldens.digest(outs[i].run());
        }
    });
    ctx.spans.enable(false);
    for (const auto &[name, d] : setupDigest) {
        std::uint64_t want = 0;
        ctx.checks.job(ctx.goldens.expected(name, want) && want == d,
                       name + ": pre-written result differs from the "
                              "committed digest");
    }

    Report rep;
    reportSetupLayers(rep, ctx);

    auto render = [&](const Figure &f, const std::string &dir,
                      ThreadResult &out) {
        harness::ExperimentPlan plan;
        for (const Key &k : f)
            plan.add(k.name, k.setup);
        const double s0 = wallNow();
        std::vector<harness::JobOutcome> outs;
        std::uint64_t execs = 0, disk = 0;
        {
            SpanLog::Scope sp(ctx.spans, "harness.sweep");
            harness::RunnerOptions ro;
            ro.jobs = perRunner;
            ro.cacheDir = dir;
            harness::Runner runner(ro);
            outs = runner.run(plan);
            execs = runner.executions();
            disk = runner.diskHits();
        }
        const double dt = wallNow() - s0;
        out.sweeps.push_back(dt);
        out.rs.sweep(dt, outs, perRunner);
        out.rs.executions += execs;
        out.rs.diskHits += disk;
        for (std::size_t i = 0; i < outs.size(); ++i) {
            const RunResult &r = outs[i].run();
            checkJob(ctx, f[i].name, r, f[i].golden, false);
            out.tally.add(f[i].machine, r, outs[i].wallSeconds,
                          !outs[i].cached);
            auto entry = std::make_pair(f[i].name, ctx.goldens.digest(r));
            if (outs[i].cached) {
                out.cached.push_back(entry);
            } else {
                out.executed.push_back(entry);
                out.executedKeys.insert(outs[i].key);
            }
        }
    };

    JobTally tally;
    UnitTimes units;
    RunnerStats rs;
    PhaseTotals phases;
    std::vector<double> sweeps;
    const Figure *figures[3] = {&shared, &own[0], &own[1]};

    // One round from template @p t; adds its thread-phase wall and CPU.
    auto round = [&](unsigned t, double &wall, double &cpu) {
        DirGuard dir(base / "round");
        fs::copy(templ[t], dir.path, fs::copy_options::recursive);

        ThreadResult tr[2];
        const double c0 = processCpuSeconds(), r0 = wallNow();
        {
            // Lockstep: both threads start each sweep together, so a
            // re-render never overlaps the other thread's misses.
            std::barrier sync(2);
            auto body = [&](unsigned th) {
                for (unsigned i = 0; i < kRenders; ++i) {
                    sync.arrive_and_wait();
                    render(shared, dir.path.string(), tr[th]);
                    sync.arrive_and_wait();
                    render(own[th], dir.path.string(), tr[th]);
                }
            };
            std::thread a(body, 0u), b(body, 1u);
            a.join();
            b.join();
        }
        wall += wallNow() - r0;
        cpu += processCpuSeconds() - c0;

        // Every cache-served result must equal the executed one.
        std::map<std::string, std::uint64_t> executed = setupDigest;
        std::set<std::uint64_t> distinct;
        for (ThreadResult &r : tr) {
            for (const auto &[name, d] : r.executed)
                executed.emplace(name, d);
            distinct.insert(r.executedKeys.begin(), r.executedKeys.end());
        }
        for (ThreadResult &r : tr) {
            for (const auto &[name, d] : r.cached) {
                auto it = executed.find(name);
                ctx.checks.other(it != executed.end() && it->second == d,
                                 name + ": cache-served result differs "
                                        "from the executed one");
            }
            tally.merge(r.tally);
            rs.dispatchSeconds += r.rs.dispatchSeconds;
            rs.jobs += r.rs.jobs;
            rs.executions += r.rs.executions;
            rs.diskHits += r.rs.diskHits;
            sweeps.insert(sweeps.end(), r.sweeps.begin(), r.sweeps.end());
        }
        rs.distinctExecuted += distinct.size();

        // ...and every key must be in the cache after its round.
        ckpt::ResultCache cache(dir.path.string());
        for (const Figure *f : figures)
            for (const Key &k : *f)
                ctx.checks.other(fs::exists(cache.path(k.key)),
                                 k.name + ": not in the cache after its "
                                          "round");
    };

    // A pass is a pair of rounds, one from each template: it executes
    // every key, so every pass repeats the same work.
    PassWalls walls = repeatPasses(ctx, phases, [&](bool) {
        double wall = 0, cpu = 0;
        round(0, wall, cpu);
        round(1, wall, cpu);
        units.add("pair", tally.take(wall, cpu));
    });

    // Replay the cache traffic through the cache's own API: load every
    // key from the template holding it, then store it into a scratch
    // directory.
    std::vector<double> loadUs, storeUs;
    if (ctx.trace) {
        ctx.spans.enable(true);
        ckpt::ResultCache in[2] = {ckpt::ResultCache(templ[0].string()),
                                   ckpt::ResultCache(templ[1].string())};
        DirGuard scratch(base / "replay");
        ckpt::ResultCache out(scratch.path.string());
        for (const Figure *f : figures) {
            for (const Key &k : *f) {
                ckpt::CachedValue v;
                const double l0 = wallNow();
                bool hit = false;
                {
                    SpanLog::Scope sp(ctx.spans, "ckpt.cache_load");
                    hit = in[0].load(k.key, v) || in[1].load(k.key, v);
                }
                const double l1 = wallNow();
                ctx.checks.other(hit, k.name + ": not in either template");
                if (!hit)
                    continue;
                {
                    SpanLog::Scope sp(ctx.spans, "ckpt.cache_store");
                    ctx.checks.other(out.store(k.key, v),
                                     k.name + ": cache store failed");
                }
                loadUs.push_back(1e6 * (l1 - l0));
                storeUs.push_back(1e6 * (wallNow() - l1));
            }
        }
        ctx.spans.enable(false);
    }

    const double errPct = sampleErrorProbe(ctx);
    reportCommon(rep, units.medianPass(), setupS, sweeps,
                 errPct);
    reportTallyLayers(rep, tally);
    reportPhaseLayers(rep, phases, 0, 0, walls, ctx.nproc);
    reportHarnessLayers(rep, rs, median(loadUs), median(storeUs));
    reportTraceOverhead(rep, walls);

    if (ctx.trace) {
        std::vector<RunSetup> setups;
        for (const Figure *f : figures)
            for (const Key &k : *f)
                setups.push_back(k.setup);
        replayLayers(ctx, rep, progs, setups);
    }
    return rep;
}

} // namespace perfbench
