/**
 * @file
 * perfbench: the repository benchmark (see README.md).
 *
 *   perfbench --workload detailed|sampled|shared_cache --seed N
 *             --seconds S --trace 0|1 [--smoke] [--goldens FILE]
 *             [--out DIR]
 *   perfbench --regen [--goldens FILE]
 *   perfbench --selftest [--goldens FILE]
 *
 * Prints every metric by name and unit, then, as the last line of
 * stdout, one JSON object {correct, attempted, failed, metrics}. With
 * --trace 0 the metrics are the end-to-end ones; with --trace 1 the
 * per-layer ones (traced run). Exits 1 when any output check fails.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench.hh"
#include "trace/trace.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace perfbench
{

namespace
{

/** The metric names BENCHMARK.json declares, in its order. */
const std::vector<std::string> kEndToEnd = {
    "setup_s",           "covered_mips",       "cpu_s",
    "peak_rss_mb",       "detailed_mips_base", "detailed_mips_svf",
    "detailed_mips_sc",  "sample_err_pct",     "sweep_p50_ms",
    "sweep_tail_ms",
};

const std::vector<std::string> kPerLayer = {
    "workloads.build_ms",
    "workloads.golden_ms",
    "sim.runfast_mips",
    "sim.step_mips",
    "uarch.core_mips.base",
    "uarch.core_mips.svf",
    "uarch.core_mips.sc",
    "uarch.cycles_per_s",
    "uarch.skip_frac",
    "uarch.squash_per_kinst",
    "uarch.disambig_steps_per_load",
    "uarch.warm_mips",
    "core.svf_ns_per_ref",
    "core.morph_frac",
    "core.reroute_per_kinst",
    "core.window_miss_frac",
    "mem.dl1_ns_per_access",
    "mem.dl1_hit_frac",
    "mem.l2_hit_frac",
    "mem.sc_ns_per_access",
    "mem.sc_hit_frac",
    "ckpt.capture_ms",
    "ckpt.restore_ms",
    "ckpt.pages_per_snapshot",
    "ckpt.cache_load_us",
    "ckpt.cache_store_us",
    "ckpt.disk_hit_frac",
    "harness.dispatch_us_per_job",
    "harness.key_us",
    "harness.exec_per_key",
    "harness.queue_wait_s",
    "harness.worker_busy_frac",
    "trace.overhead_pct",
};

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

/** Order @p got as @p want; false when the name sets differ. */
bool
ordered(const std::vector<Metric> &got,
        const std::vector<std::string> &want, std::vector<Metric> &out)
{
    out.clear();
    std::set<std::string> seen;
    for (const Metric &m : got)
        if (!seen.insert(m.name).second)
            return false;
    if (seen.size() != want.size())
        return false;
    for (const std::string &name : want) {
        auto it = std::find_if(got.begin(), got.end(),
                               [&](const Metric &m) {
                                   return m.name == name;
                               });
        if (it == got.end())
            return false;
        out.push_back(*it);
    }
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload detailed|sampled|"
                 "shared_cache --seed N --seconds S --trace 0|1 "
                 "[--smoke] [--goldens FILE] [--out DIR]\n"
                 "       perfbench --regen [--goldens FILE]\n"
                 "       perfbench --selftest [--goldens FILE]\n");
    return 2;
}

bool
parseUint(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return *s && end && !*end;
}

} // anonymous namespace

Report
runWorkload(Ctx &ctx)
{
    if (ctx.workload == "detailed")
        return runDetailed(ctx);
    if (ctx.workload == "sampled")
        return runSampled(ctx);
    if (ctx.workload == "shared_cache")
        return runSharedCache(ctx);
    throw std::invalid_argument("unknown workload '" + ctx.workload +
                                "'");
}

bool
selectMetrics(const Ctx &ctx, const Report &rep, std::vector<Metric> &out)
{
    return ordered(ctx.trace ? rep.perLayer : rep.endToEnd,
                   ctx.trace ? kPerLayer : kEndToEnd, out);
}

int
runAndPrint(Ctx &ctx)
{
    std::filesystem::create_directories(ctx.outDir);
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "smoke=%d nproc=%u compiler=\"%s\" build=%s "
                "svf_tracing=%s\n",
                ctx.workload.c_str(), (unsigned long long)ctx.seed,
                ctx.seconds, int(ctx.trace), int(ctx.smoke), ctx.nproc,
                compilerName(), PERFBENCH_BUILD_TYPE,
                svf::trace::kTracingCompiled ? "ON" : "OFF");
    std::fflush(stdout);

    Report rep = runWorkload(ctx);
    std::vector<Metric> metrics;
    if (!selectMetrics(ctx, rep, metrics)) {
        std::fprintf(stderr, "perfbench: internal error: the %s metric "
                             "set differs from BENCHMARK.json\n",
                     ctx.trace ? "per-layer" : "end-to-end");
        return 3;
    }

    const std::uint64_t attempted = ctx.checks.attempted();
    const std::uint64_t failed = ctx.checks.failed();
    for (const Metric &m : ctx.trace ? rep.perLayer : rep.endToEnd)
        std::printf("%-30s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::printf("%-30s %16.6f %-8s %llu of %llu jobs\n",
                "jobs_failed_frac",
                attempted ? double(failed) / double(attempted) : 0.0,
                "frac", (unsigned long long)failed,
                (unsigned long long)attempted);

    if (ctx.trace) {
        std::string path = ctx.outDir + "/spans-" + ctx.workload +
                           "-seed" + std::to_string(ctx.seed) + ".json";
        if (!ctx.spans.write(path))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
        for (const auto &[name, self] : ctx.spans.selfTimes())
            std::fprintf(stderr, "span %-28s self %10.3f ms\n",
                         name.c_str(), self * 1e3);
    }

    std::string json = "{\"correct\": ";
    json += ctx.checks.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit.c_str());
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return ctx.checks.correct() ? 0 : 1;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;

    // Environment hygiene: these variables feed MachineConfig defaults
    // (and so every setup key), and timings of a non-Release build
    // mean nothing.
    for (const char *var : {"SVF_SCHED", "SVF_DISAMBIG"}) {
        if (std::getenv(var)) {
            std::fprintf(stderr, "perfbench: refusing to run with %s set "
                                 "(it changes the simulated machine's "
                                 "defaults)\n", var);
            return 2;
        }
    }
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr, "perfbench: refusing a non-Release build "
                             "(CMAKE_BUILD_TYPE='%s')\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }

    Ctx ctx;
    ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::string goldens = "perfbench/goldens.txt";
    bool regen = false, selftest = false;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        std::uint64_t v = 0;
        const char *s = nullptr;
        if (a == "--regen") {
            regen = true;
        } else if (a == "--selftest") {
            selftest = true;
        } else if (a == "--smoke") {
            ctx.smoke = true;
        } else if (a == "--workload" && (s = value())) {
            ctx.workload = s;
            haveWorkload = true;
        } else if (a == "--seed" && (s = value()) && parseUint(s, v)) {
            ctx.seed = v;
            haveSeed = true;
        } else if (a == "--seconds" && (s = value()) && parseUint(s, v) &&
                   v > 0) {
            ctx.seconds = double(v);
            haveSeconds = true;
        } else if (a == "--trace" && (s = value()) && parseUint(s, v) &&
                   v <= 1) {
            ctx.trace = v == 1;
            haveTrace = true;
        } else if (a == "--goldens" && (s = value())) {
            goldens = s;
        } else if (a == "--out" && (s = value())) {
            ctx.outDir = s;
        } else {
            return usage();
        }
    }

    try {
        if (regen)
            return regenerate(ctx, goldens);
        std::string error;
        if (!ctx.goldens.load(goldens, error)) {
            std::fprintf(stderr, "perfbench: %s\n", error.c_str());
            return 2;
        }
        if (selftest)
            return selfTest(ctx);
        if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
            return usage();
        return runAndPrint(ctx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
