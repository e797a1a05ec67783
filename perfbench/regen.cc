/**
 * @file
 * Regeneration of goldens.txt: the digest of every job setup any seed
 * can produce (sampled ones at pjobs=1), the sampled programs'
 * lengths, and the full-detail reference cycles behind
 * sample_err_pct. Review the diff of goldens.txt like code: a changed
 * digest means the simulated results changed.
 */

#include <cstdio>
#include <stdexcept>

#include "perfbench.hh"
#include "sim/emulator.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace svf;

namespace
{

/** Budget large enough for every program to run to completion. */
constexpr std::uint64_t kCompleteBudget = 1'000'000'000;

struct Entry
{
    std::string name;
    bool isRef;                 // store cycles instead of a digest
    bool mustComplete;
    std::string golden;
};

} // anonymous namespace

int
regenerate(Ctx &ctx, const std::string &path)
{
    Goldens &g = ctx.goldens;
    g.useRegistryCounters();

    for (bool smoke : {false, true}) {
        for (const std::string &prog : sampledPrograms()) {
            const auto &spec = workloads::workload(prog);
            sim::Emulator emu(spec.build(spec.inputs.front(),
                                         sampledScale(prog, smoke)));
            emu.runFast(kCompleteBudget);
            if (!emu.halted())
                throw std::runtime_error(prog + " did not halt");
            g.setValue(lengthName(prog, smoke), emu.instCount());
        }
    }

    harness::ExperimentPlan plan;
    std::vector<Entry> entries;
    auto add = [&](std::string name, bool isRef, bool mustComplete,
                   const RunSetup &s) {
        const auto &spec = workloads::workload(s.workload);
        plan.add(name, s);
        entries.push_back({std::move(name), isRef, mustComplete,
                           spec.expected(s.input, s.scale ? s.scale
                                                 : spec.defaultScale)});
    };

    for (bool smoke : {false, true}) {
        for (const auto &spec : workloads::allWorkloads()) {
            const std::string &input = spec.inputs.front();
            for (std::uint64_t scale : detailedScales(spec.name, smoke))
                for (unsigned m = 0; m < machines().size(); ++m)
                    add(detailedName(spec.name, input, scale,
                                     machines()[m].name),
                        false, true,
                        makeSetup(spec.name, input, scale,
                                  100'000'000, m));
            for (std::uint64_t budget : sharedBudgets(smoke))
                for (unsigned m = 0; m < machines().size(); ++m)
                    add(sharedName(spec.name, budget, machines()[m].name),
                        false, false,
                        makeSetup(spec.name, input, 0, budget, m));
        }
        for (const std::string &prog : sampledPrograms()) {
            const std::string &input =
                workloads::workload(prog).inputs.front();
            const std::uint64_t scale = sampledScale(prog, smoke);
            std::uint64_t len = 0;
            g.value(lengthName(prog, smoke), len);
            for (unsigned m = 0; m < machines().size(); ++m) {
                for (bool pwarm : {false, true}) {
                    RunSetup s = makeSetup(prog, input, scale, len, m);
                    s.sample = sampledPlan(pwarm, smoke);
                    s.pjobs = 1;
                    add(sampledName(prog, pwarm, machines()[m].name, smoke),
                        false, true, s);
                }
                add(refCyclesName(prog, machines()[m].name, smoke), true,
                    true,
                    makeSetup(prog, input, scale, kCompleteBudget, m));
            }
        }
    }

    std::fprintf(stderr, "perfbench: regenerating %zu jobs on %u "
                         "threads\n", plan.size(), ctx.nproc);
    harness::RunnerOptions ro;
    ro.jobs = ctx.nproc;
    harness::Runner runner(ro);
    std::vector<harness::JobOutcome> outs = runner.run(plan);

    unsigned bad = 0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const Entry &e = entries[i];
        const RunResult &r = outs[i].run();
        if ((e.mustComplete && !r.completed) ||
            (r.completed && (!r.outputOk || r.output != e.golden))) {
            std::fprintf(stderr, "perfbench: %s: wrong or incomplete "
                                 "output\n", e.name.c_str());
            ++bad;
            continue;
        }
        if (e.isRef)
            g.setValue(e.name, r.core.cycles);
        else
            g.setDigest(e.name, g.digest(r));
    }
    if (bad) {
        std::fprintf(stderr, "perfbench: %u jobs failed; %s not "
                             "written\n", bad, path.c_str());
        return 1;
    }
    if (!g.save(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(stderr, "perfbench: wrote %s\n", path.c_str());
    return 0;
}

} // namespace perfbench
