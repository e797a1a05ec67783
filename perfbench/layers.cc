/**
 * @file
 * Traced layer replays. The runner hides every layer below it, so the
 * traced run calls each layer's public functions itself on the
 * workload's own programs and machines, one span per call:
 *   sim     Emulator::step over the program
 *   uarch   OooCore::run on each machine
 *   core    SvfUnit::classifyAndApply over the recorded stream
 *   mem     Cache::access (DL1) and StackCache::access
 *   ckpt    Snapshot::capture at the sample plan's detail points
 *   harness RunSetup::key over the workload's setups
 */

#include <algorithm>

#include "ckpt/sampler.hh"
#include "ckpt/snapshot.hh"
#include "core/svf_unit.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/stack_cache.hh"
#include "perfbench.hh"
#include "sim/emulator.hh"
#include "sim/region.hh"
#include "uarch/ooo_core.hh"

namespace perfbench
{

using namespace svf;

namespace
{

/** Instructions each replay walks per program (a prefix). */
constexpr std::uint64_t kReplayInsts = 300'000;
/** RunSetup::key repetitions per setup. */
constexpr unsigned kKeyReps = 200;

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

struct Access
{
    Addr ea;
    bool write;
};

} // anonymous namespace

/** Where the key replay's result goes (external, so never elided). */
std::uint64_t gKeySink = 0;

void
replayLayers(Ctx &ctx, Report &rep,
             const std::vector<ReplayProgram> &progs,
             const std::vector<RunSetup> &setups)
{
    ctx.spans.enable(true);
    const std::vector<Machine> &ms = machines();
    double stepInsts = 0, stepWall = 0;
    double coreInsts[3] = {}, coreWall[3] = {};
    double cycles = 0, skipped = 0, active = 0;
    double svfRefs = 0, svfWall = 0;
    double dl1Refs = 0, dl1Wall = 0, scRefs = 0, scWall = 0;
    double pages = 0, snaps = 0;

    for (const ReplayProgram &p : progs) {
        const std::uint64_t budget = std::min(p.maxInsts, kReplayInsts);
        sim::ExecInfo info;

        {
            sim::Emulator emu(p.prog);
            const double t0 = wallNow();
            {
                SpanLog::Scope sp(ctx.spans, "sim.step");
                for (std::uint64_t n = 0; n < budget && emu.step(info);
                     ++n) {
                }
            }
            stepWall += wallNow() - t0;
            stepInsts += double(emu.instCount());
        }

        for (unsigned m = 0; m < ms.size(); ++m) {
            sim::Emulator emu(p.prog);
            uarch::OooCore core(ms[m].cfg, emu);
            const double t0 = wallNow();
            {
                SpanLog::Scope sp(ctx.spans,
                                  std::string("uarch.run.") + ms[m].name);
                core.run(budget);
            }
            coreWall[m] += wallNow() - t0;
            coreInsts[m] += double(core.stats().committed);
            cycles += double(core.stats().cycles);
            skipped += double(core.schedStats().skippedCycles);
            active += double(core.schedStats().activeCycles);
        }

        // Record the stream once (untimed); the ExecInfo decode
        // pointers stay valid while `rec` lives.
        sim::Emulator rec(p.prog);
        std::vector<sim::ExecInfo> stream;
        std::vector<Access> data, stack;
        for (std::uint64_t n = 0; n < budget && rec.step(info); ++n) {
            if (!info.di->memRef && !info.spWritten)
                continue;
            stream.push_back(info);
            if (!info.di->memRef)
                continue;
            Access a{info.ea, !info.di->load};
            data.push_back(a);
            if (sim::classify(info.ea) == sim::Region::Stack)
                stack.push_back(a);
        }

        {
            core::SvfUnit svf(ms[1].cfg.svf, isa::layout::StackBase);
            const double t0 = wallNow();
            {
                SpanLog::Scope sp(ctx.spans, "core.svf_classify");
                for (const sim::ExecInfo &i : stream)
                    svf.classifyAndApply(i);
            }
            svfWall += wallNow() - t0;
            svfRefs += double(data.size());
        }
        {
            mem::Cache dl1(ms[0].cfg.hier.dl1);
            const double t0 = wallNow();
            {
                SpanLog::Scope sp(ctx.spans, "mem.dl1_access");
                for (const Access &a : data)
                    dl1.access(a.ea, a.write);
            }
            dl1Wall += wallNow() - t0;
            dl1Refs += double(data.size());
        }
        {
            mem::MemHierarchy hier(ms[2].cfg.hier);
            mem::StackCache sc(ms[2].cfg.stackCache, hier);
            const double t0 = wallNow();
            {
                SpanLog::Scope sp(ctx.spans, "mem.sc_access");
                for (const Access &a : stack)
                    sc.access(a.ea, a.write);
            }
            scWall += wallNow() - t0;
            scRefs += double(stack.size());
        }

        if (p.plan.enabled()) {
            sim::Emulator emu(p.prog);
            ckpt::Sampler s(p.plan, p.maxInsts);
            for (std::uint64_t i = 0; i < s.intervalCount(); ++i) {
                ckpt::fastForward(emu, s.interval(i).ffTarget);
                if (emu.halted())
                    break;
                SpanLog::Scope sp(ctx.spans, "ckpt.capture");
                pages += double(ckpt::Snapshot::capture(emu).pageCount());
                ++snaps;
            }
        }
    }

    std::uint64_t sink = 0;
    const double k0 = wallNow();
    {
        SpanLog::Scope sp(ctx.spans, "harness.key");
        for (unsigned r = 0; r < kKeyReps; ++r)
            for (const RunSetup &s : setups)
                sink ^= s.key();
    }
    const double keyWall = wallNow() - k0;
    ctx.spans.enable(false);
    gKeySink = sink;

    rep.layer("sim.step_mips", ratio(stepInsts, stepWall) / 1e6, "MIPS");
    static const char *const coreNames[3] = {"uarch.core_mips.base",
                                        "uarch.core_mips.svf",
                                        "uarch.core_mips.sc"};
    double allWall = 0;
    for (unsigned m = 0; m < 3; ++m) {
        rep.layer(coreNames[m], ratio(coreInsts[m], coreWall[m]) / 1e6, "MIPS");
        allWall += coreWall[m];
    }
    rep.layer("uarch.cycles_per_s", ratio(cycles, allWall), "1/s");
    rep.layer("uarch.skip_frac", ratio(skipped, skipped + active), "frac");
    rep.layer("core.svf_ns_per_ref", 1e9 * ratio(svfWall, svfRefs), "ns");
    rep.layer("mem.dl1_ns_per_access", 1e9 * ratio(dl1Wall, dl1Refs),
              "ns");
    rep.layer("mem.sc_ns_per_access", 1e9 * ratio(scWall, scRefs), "ns");
    rep.layer("ckpt.pages_per_snapshot", ratio(pages, snaps), "pages");
    rep.layer("harness.key_us",
              1e6 * ratio(keyWall, double(kKeyReps) * double(setups.size())),
              "us");
}

} // namespace perfbench
