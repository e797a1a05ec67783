/**
 * @file
 * The `sampled` workload: four long programs under a cold interval
 * plan and a parallel-warm plan, on the three machines, with
 * pjobs=nproc. It puts the work in the layers `detailed` barely
 * touches: runFast fast-forward on the serial critical path (cold),
 * per-step functional warming (pwarm), snapshot capture and restore,
 * and the interval pipeline's queue. The seed changes only the job
 * order, so the committed full-detail reference cycles stay valid
 * and sample_err_pct repeats exactly.
 */

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "ckpt/sampler.hh"
#include "perfbench.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace svf;

const std::vector<std::string> &
sampledPrograms()
{
    static const std::vector<std::string> p = {"mcf", "gcc", "vortex",
                                               "gzip"};
    return p;
}

std::uint64_t
sampledScale(const std::string &prog, bool smoke)
{
    const workloads::WorkloadSpec &spec = workloads::workload(prog);
    return smoke ? 2 * spec.testScale : 20 * spec.defaultScale;
}

ckpt::SamplePlan
sampledPlan(bool pwarm, bool smoke)
{
    std::string spec = smoke ? "4,500,2000" : "32,2000,8000";
    return ckpt::SamplePlan::parse(pwarm ? spec + ",pwarm" : spec);
}

namespace
{

std::string
prefix(bool smoke)
{
    return smoke ? "smoke-sampled/" : "sampled/";
}

} // anonymous namespace

std::string
sampledName(const std::string &prog, bool pwarm, const char *machine,
            bool smoke)
{
    return prefix(smoke) + prog + (pwarm ? "/pwarm/" : "/cold/") + machine;
}

std::string
lengthName(const std::string &prog, bool smoke)
{
    return "len/" + prefix(smoke) + prog;
}

std::string
refCyclesName(const std::string &prog, const char *machine, bool smoke)
{
    return "ref/" + prefix(smoke) + prog + "/" + machine;
}

namespace
{

struct SampledJob
{
    std::string name;
    std::string prog;
    bool pwarm = false;
    unsigned machine = 0;
    RunSetup setup;
    std::uint64_t refCycles = 0;
    std::uint64_t warmInsts = 0;    // instructions a pwarm job replays
};

struct Program
{
    std::string name;
    std::string input;
    std::uint64_t scale = 0;
    std::uint64_t length = 0;
    isa::Program prog;
    std::string golden;
};

std::uint64_t
committedValue(const Ctx &ctx, const std::string &name)
{
    std::uint64_t v = 0;
    if (!ctx.goldens.value(name, v))
        throw std::runtime_error("goldens have no value " + name +
                                 " (regenerate with --regen)");
    return v;
}

Program
prepareProgram(Ctx &ctx, const std::string &name)
{
    Program p;
    p.name = name;
    p.input = workloads::workload(name).inputs.front();
    p.scale = sampledScale(name, ctx.smoke);
    p.length = committedValue(ctx, lengthName(name, ctx.smoke));
    p.prog = buildProgram(ctx, p.name, p.input, p.scale);
    p.golden = goldenOutput(ctx, p.name, p.input, p.scale);
    return p;
}

SampledJob
makeJob(const Ctx &ctx, const Program &p, bool pwarm, unsigned m)
{
    SampledJob j;
    j.name = sampledName(p.name, pwarm, machines()[m].name, ctx.smoke);
    j.prog = p.name;
    j.pwarm = pwarm;
    j.machine = m;
    j.setup = makeSetup(p.name, p.input, p.scale, p.length, m);
    j.setup.sample = sampledPlan(pwarm, ctx.smoke);
    j.setup.pjobs = ctx.nproc;
    j.refCycles = committedValue(
        ctx, refCyclesName(p.name, machines()[m].name, ctx.smoke));
    if (pwarm) {
        // Interval i replays from snapshot i-1 (interval 0 from the
        // start) to its detail point: the whole prefix to the last
        // detail point, once.
        ckpt::Sampler s(j.setup.sample, p.length);
        j.warmInsts = s.interval(s.intervalCount() - 1).ffTarget;
    }
    return j;
}

/** |estimated - full-detail cycles| / full-detail cycles, percent. */
double
errorPct(const RunResult &r, std::uint64_t ref)
{
    return 100.0 *
           std::fabs(double(r.sampled.estimatedCycles) - double(ref)) /
           double(ref);
}

} // anonymous namespace

double
sampleErrorProbe(Ctx &ctx)
{
    Program p = prepareProgram(ctx, "mcf");
    std::vector<SampledJob> jobs;
    harness::ExperimentPlan plan;
    for (unsigned m = 0; m < machines().size(); ++m) {
        jobs.push_back(makeJob(ctx, p, false, m));
        plan.add(jobs.back().name, jobs.back().setup);
    }
    harness::RunnerOptions ro;
    ro.jobs = 1;
    ro.memoize = false;
    harness::Runner runner(ro);
    std::vector<harness::JobOutcome> outs = runner.run(plan);
    double err = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const RunResult &r = outs[i].run();
        checkJob(ctx, jobs[i].name, r, p.golden, true);
        err += errorPct(r, jobs[i].refCycles);
    }
    return err / double(outs.size());
}

Report
runSampled(Ctx &ctx)
{
    std::vector<Program> progs;
    std::vector<SampledJob> jobs;
    std::vector<std::size_t> order;
    ctx.spans.enable(ctx.trace);
    double setupS = timedSetup(ctx, [&] {
        progs.clear();
        jobs.clear();
        for (const std::string &name : sampledPrograms())
            progs.push_back(prepareProgram(ctx, name));
        for (const Program &p : progs)
            for (bool pwarm : {false, true})
                for (unsigned m = 0; m < machines().size(); ++m)
                    jobs.push_back(makeJob(ctx, p, pwarm, m));
        Rng rng(ctx.seed);
        order = permutation(jobs.size(), rng);
    });
    ctx.spans.enable(false);

    auto golden = [&](const SampledJob &j) -> const std::string & {
        for (const Program &p : progs)
            if (p.name == j.prog)
                return p.golden;
        throw std::logic_error("unknown program " + j.prog);
    };

    Report rep;
    reportSetupLayers(rep, ctx);

    harness::RunnerOptions ro;
    ro.jobs = 1;
    ro.memoize = false;
    harness::Runner runner(ro);

    JobTally tally;
    UnitTimes units;
    RunnerStats rs;
    PhaseTotals phases;
    std::vector<double> sweeps;
    std::vector<double> errors(jobs.size(), -1);
    double producerInsts = 0, warmInsts = 0;
    PassWalls walls = repeatPasses(ctx, phases, [&](bool traced) {
        // Each job is its own plan, as one svf-sim sample= run.
        for (std::size_t ji : order) {
            const SampledJob &j = jobs[ji];
            harness::ExperimentPlan plan;
            plan.add(j.name, j.setup);
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
            const RunResult &r = outs.front().run();
            checkJob(ctx, j.name, r, golden(j), true);
            tally.add(j.machine, r, outs.front().wallSeconds, true);
            units.add(j.name, tally.take(dt, dc));
            const double e = errorPct(r, j.refCycles);
            if (errors[ji] < 0)
                errors[ji] = e;
            ctx.checks.other(errors[ji] == e,
                             j.name + ": estimate changed between passes");
            if (traced) {
                producerInsts += double(r.sampled.totalInsts);
                warmInsts += double(j.warmInsts);
            }
        }
        rs.distinctExecuted += jobs.size();
    });
    rs.executions = runner.executions();
    rs.diskHits = runner.diskHits();

    double err = 0;
    for (double e : errors)
        err += e;
    reportCommon(rep, units.medianPass(), setupS, sweeps,
                 err / double(errors.size()));
    reportTallyLayers(rep, tally);
    reportPhaseLayers(rep, phases, producerInsts, warmInsts, walls,
                      ctx.nproc);
    reportHarnessLayers(rep, rs, 0, 0);
    reportTraceOverhead(rep, walls);

    if (ctx.trace) {
        std::vector<ReplayProgram> rp;
        std::vector<RunSetup> setups;
        for (const Program &p : progs)
            rp.push_back({p.prog, p.length, sampledPlan(false, ctx.smoke)});
        for (const SampledJob &j : jobs)
            setups.push_back(j.setup);
        replayLayers(ctx, rep, rp, setups);
    }
    return rep;
}

} // namespace perfbench
