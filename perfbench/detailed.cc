/**
 * @file
 * The `detailed` workload: full-detail runs of all twelve kernels on
 * the three 16-wide machines, one kernel's three machines per sweep,
 * through one Runner with jobs=1. The detailed core is nearly all of
 * the host profile, and the three machines exercise it differently
 * (LSQ/DL1 ports, SVF morphing with reroute squashes, the stack
 * cache), so each machine's throughput is reported on its own.
 */

#include <cmath>
#include <cstdio>

#include "perfbench.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace svf;

namespace
{

/** Budget large enough that every kernel runs to completion. */
constexpr std::uint64_t kFullBudget = 100'000'000;

} // anonymous namespace

std::vector<std::uint64_t>
detailedScales(const std::string &kernel, bool smoke)
{
    const workloads::WorkloadSpec &spec = workloads::workload(kernel);
    std::vector<std::uint64_t> out;
    auto add = [&](std::uint64_t s) {
        s = std::max<std::uint64_t>(1, s);
        if (out.empty() || out.back() != s)
            out.push_back(s);
    };
    if (smoke) {
        add(spec.testScale / 2);
        add(spec.testScale);
        return out;
    }
    // About a third of the default scale (0.3-0.9 M instructions), so
    // several passes over all 36 jobs fit in one run; the narrow band
    // varies the inputs per seed without moving the job mix.
    for (double f : {0.30, 0.32, 0.34})
        add(static_cast<std::uint64_t>(
            std::llround(double(spec.defaultScale) * f)));
    return out;
}

std::string
detailedName(const std::string &kernel, const std::string &input,
             std::uint64_t scale, const char *machine)
{
    return "detailed/" + kernel + "/" + input + "/s" +
           std::to_string(scale) + "/" + machine;
}

namespace
{

struct Kernel
{
    std::string name;
    std::string input;
    std::uint64_t scale = 0;
    isa::Program prog;
    std::string golden;
    std::vector<std::size_t> machineOrder;
};

} // anonymous namespace

Report
runDetailed(Ctx &ctx)
{
    std::vector<Kernel> kernels;
    std::vector<std::size_t> order;
    ctx.spans.enable(ctx.trace);
    double setupS = timedSetup(ctx, [&] {
        Rng rng(ctx.seed);
        kernels.clear();
        for (const workloads::WorkloadSpec &spec :
             workloads::allWorkloads()) {
            Kernel k;
            k.name = spec.name;
            k.input = spec.inputs.front();
            std::vector<std::uint64_t> scales =
                detailedScales(spec.name, ctx.smoke);
            k.scale = scales[rng() % scales.size()];
            k.prog = buildProgram(ctx, k.name, k.input, k.scale);
            k.golden = goldenOutput(ctx, k.name, k.input, k.scale);
            kernels.push_back(std::move(k));
        }
        order = permutation(kernels.size(), rng);
        for (Kernel &k : kernels)
            k.machineOrder = permutation(machines().size(), rng);
    });
    ctx.spans.enable(false);

    Report rep;
    reportSetupLayers(rep, ctx);

    harness::RunnerOptions ro;
    ro.jobs = 1;
    ro.memoize = false;     // every pass re-simulates
    harness::Runner runner(ro);

    JobTally tally;
    UnitTimes units;
    RunnerStats rs;
    PhaseTotals phases;
    std::vector<double> sweeps;
    PassWalls walls = repeatPasses(ctx, phases, [&](bool) {
        for (std::size_t ki : order) {
            const Kernel &k = kernels[ki];
            harness::ExperimentPlan plan;
            for (std::size_t m : k.machineOrder)
                plan.add(k.name,
                         makeSetup(k.name, k.input, k.scale,
                                   kFullBudget, unsigned(m)));
            const double s0 = wallNow(), c0 = processCpuSeconds();
            std::vector<harness::JobOutcome> outs;
            {
                SpanLog::Scope sp(ctx.spans, "harness.sweep");
                outs = runner.run(plan);
            }
            const double dt = wallNow() - s0;
            const double dc = processCpuSeconds() - c0;
            sweeps.push_back(dt);
            rs.sweep(dt, outs, 1);
            for (std::size_t j = 0; j < outs.size(); ++j) {
                unsigned m = unsigned(k.machineOrder[j]);
                const RunResult &r = outs[j].run();
                checkJob(ctx,
                         detailedName(k.name, k.input, k.scale,
                                      machines()[m].name),
                         r, k.golden, true);
                tally.add(m, r, outs[j].wallSeconds, true);
            }
            units.add(k.name, tally.take(dt, dc));
        }
        rs.distinctExecuted += kernels.size() * machines().size();
    });
    rs.executions = runner.executions();
    rs.diskHits = runner.diskHits();

    const double errPct = sampleErrorProbe(ctx);
    reportCommon(rep, units.medianPass(), setupS, sweeps, errPct);
    reportTallyLayers(rep, tally);
    reportPhaseLayers(rep, phases, 0, 0, walls, 1);
    reportHarnessLayers(rep, rs, 0, 0);
    reportTraceOverhead(rep, walls);

    if (ctx.trace) {
        std::vector<ReplayProgram> progs;
        std::vector<RunSetup> setups;
        for (const Kernel &k : kernels) {
            progs.push_back({k.prog, kFullBudget, {}});
            for (unsigned m = 0; m < machines().size(); ++m)
                setups.push_back(makeSetup(k.name, k.input, k.scale,
                                           kFullBudget, m));
        }
        replayLayers(ctx, rep, progs, setups);
    }
    return rep;
}

} // namespace perfbench
