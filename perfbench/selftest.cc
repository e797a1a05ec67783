/**
 * @file
 * Self-tests of the benchmark itself:
 *   smoke   all three workloads at tiny budgets, untraced and traced,
 *           every check passing and every metric present;
 *   seeds   two seeds give different job orders, and every job setup
 *           both seeds run gets the same digest under both;
 *   digest  perturbing any one committed counter (or the program
 *           output) of a real result fails the digest check.
 */

#include <cstdio>
#include <memory>

#include "harness/counters.hh"
#include "perfbench.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace svf;

namespace
{

unsigned failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    std::fflush(stdout);
    failures += !ok;
}

std::unique_ptr<Ctx>
smokeCtx(const Ctx &base, const std::string &workload, std::uint64_t seed,
         bool trace)
{
    auto c = std::make_unique<Ctx>();
    c->workload = workload;
    c->seed = seed;
    c->seconds = 1;
    c->trace = trace;
    c->smoke = true;
    c->nproc = base.nproc;
    c->setupReps = 1;
    c->outDir = base.outDir;
    c->goldens = base.goldens;
    return c;
}

} // anonymous namespace

int
selfTest(Ctx &base)
{
    for (const char *wl : {"detailed", "sampled", "shared_cache"}) {
        std::unique_ptr<Ctx> run[2];
        for (std::uint64_t seed : {1, 2}) {
            auto &c = run[seed - 1];
            c = smokeCtx(base, wl, seed, false);
            Report rep = runWorkload(*c);
            std::vector<Metric> ms;
            expect(c->checks.correct() && c->checks.attempted() > 0 &&
                       selectMetrics(*c, rep, ms),
                   std::string("smoke ") + wl + " seed " +
                       std::to_string(seed));
        }
        {
            auto c = smokeCtx(base, wl, 1, true);
            Report rep = runWorkload(*c);
            std::vector<Metric> ms;
            expect(c->checks.correct() && selectMetrics(*c, rep, ms),
                   std::string("smoke ") + wl + " traced");
        }

        if (std::string(wl) != "shared_cache") {
            expect(run[0]->checks.order() != run[1]->checks.order(),
                   std::string("seeds ") + wl +
                       ": seeds 1 and 2 give different job orders");
        }
        std::map<std::string, std::uint64_t> a = run[0]->checks.digests(),
                                             b = run[1]->checks.digests();
        unsigned common = 0, same = 0;
        for (const auto &[name, d] : a) {
            auto it = b.find(name);
            if (it == b.end())
                continue;
            ++common;
            same += it->second == d;
        }
        expect(common > 0 && same == common,
               std::string("seeds ") + wl + ": " + std::to_string(same) +
                   " of " + std::to_string(common) +
                   " shared setups agree");
    }

    // A real result, then every single-counter perturbation of it.
    const auto &spec = workloads::allWorkloads().front();
    const std::string &input = spec.inputs.front();
    const std::uint64_t scale = detailedScales(spec.name, true).front();
    const std::string name =
        detailedName(spec.name, input, scale, machines()[0].name);
    RunResult r = harness::runExperiment(
        makeSetup(spec.name, input, scale, 100'000'000, 0));
    expect(base.goldens.matches(name, r),
           "digest: " + name + " matches its committed digest");
    unsigned caught = 0, tried = 0;
    for (const std::string &c : base.goldens.counterNames()) {
        const harness::CounterDef *d = harness::findCounter(c);
        if (!d)
            continue;
        RunResult p = r;
        d->ref(p) += 1;
        ++tried;
        caught += !base.goldens.matches(name, p);
    }
    expect(tried > 0 && caught == tried,
           "digest: " + std::to_string(caught) + " of " +
               std::to_string(tried) +
               " single-counter perturbations fail the check");
    RunResult p = r;
    p.output += "x";
    expect(!base.goldens.matches(name, p),
           "digest: a perturbed program output fails the check");

    std::printf("%s: %u failure(s)\n", failures ? "SELFTEST FAILED" :
                                                  "SELFTEST PASSED",
                failures);
    return failures ? 1 : 0;
}

} // namespace perfbench
