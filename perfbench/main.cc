/**
 * @file
 * lacc_perf: the repository benchmark's program. Runs passes over one
 * named workload for a fixed host-time budget and prints every metric
 * with its unit, then one JSON result line (the last line of stdout).
 *
 *   lacc_perf --workload paper64|litmus-faults
 *             [--seed N] [--fault-seed N] [--seconds S] [--trace 0|1]
 *
 * --trace 0 reports the end-to-end metrics from untraced passes;
 * --trace 1 reports the per-layer metrics from traced passes (plus
 * the untraced and comparison passes their ratios need). Exit status
 * is 0 when the run finished, whether or not it was correct; the
 * "correct" field carries the verdict. See README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "perfbench.hh"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    std::uint64_t faultSeed = kDefaultFaultSeed;
    double seconds = 55.0;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "lacc_perf: %s\nusage: lacc_perf --workload "
                 "paper64|litmus-faults [--seed N] "
                 "[--fault-seed N] [--seconds S] [--trace 0|1]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseU64(const std::string &flag, const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 0);
    if (end == s || *end != '\0' || s[0] == '-')
        usage(("bad value for " + flag).c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *v = argv[++i];
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = parseU64(flag, v);
        } else if (flag == "--fault-seed") {
            o.faultSeed = parseU64(flag, v);
        } else if (flag == "--seconds") {
            char *end = nullptr;
            o.seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(o.seconds > 0.0) ||
                o.seconds > 3600.0)
                usage("--seconds wants a number in (0, 3600]");
        } else if (flag == "--trace") {
            const std::string t = v;
            if (t != "0" && t != "1")
                usage("--trace wants 0 or 1");
            o.trace = t == "1";
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        usage("--workload wants paper64 or litmus-faults");
    return o;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
medianOf(const std::vector<PassResult> &passes,
         const std::function<double(const PassResult &)> &f)
{
    std::vector<double> v;
    for (const auto &p : passes)
        v.push_back(f(p));
    return median(v);
}

/**
 * The median pass: each simulation's median of @p f over @p passes,
 * summed. A burst of host noise slows one simulation of one pass, and
 * the per-simulation median drops it.
 */
double
medianPass(const std::vector<PassResult> &passes,
           const std::function<double(const SimResult &)> &f)
{
    double t = 0.0;
    for (std::size_t i = 0; i < passes.front().sims.size(); ++i) {
        std::vector<double> v;
        for (const auto &p : passes)
            v.push_back(f(p.sims[i]));
        t += median(v);
    }
    return t;
}

/** Sum @p f over the simulations of @p p. */
double
sumSims(const PassResult &p, const std::function<double(const SimResult &)> &f)
{
    double t = 0.0;
    for (const auto &s : p.sims)
        t += f(s);
    return t;
}

/**
 * The fastest pass: each simulation's least @p f over @p passes,
 * summed. The host is shared, and other tenants slow it by up to 2x
 * for stretches of seconds to minutes. That noise only ever adds time,
 * so the least time is the one closest to the program's own cost: a
 * median or mean over one run moves with how much of the run was
 * slowed (see README.md).
 */
double
fastestPass(const std::vector<PassResult> &passes,
            const std::function<double(const SimResult &)> &f)
{
    double t = 0.0;
    for (std::size_t i = 0; i < passes.front().sims.size(); ++i) {
        double least = f(passes.front().sims[i]);
        for (const auto &p : passes)
            least = std::min(least, f(p.sims[i]));
        t += least;
    }
    return t;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    const char *better; //!< "lower"/"higher", or null for per-layer
};

/** Everything a run did, for the verdict and the attempt counts. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> problems;

    void
    add(const PassResult &p)
    {
        attempted += p.sims.size();
        failed += p.failures();
        for (const auto &s : p.sims) {
            if (!s.failed())
                continue;
            correct = false;
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s failed: abort='%s' functional_errors=%" PRIu64
                          " violations=%" PRIu64
                          " silent_corruptions=%" PRIu64,
                          s.bench.c_str(), s.abortReason.c_str(),
                          s.functionalErrors, s.violations,
                          s.stats.faults.silentCorruptions);
            problems.push_back(buf);
        }
    }

    void
    require(bool ok, const std::string &what)
    {
        if (!ok) {
            correct = false;
            problems.push_back(what);
        }
    }
};

/** One progress line per pass, then one per simulation, on stderr. */
void
logPass(const char *kind, const PassResult &p)
{
    std::fprintf(stderr,
                 "%s pass: wall %.3f s, setup %.3f s, run %.3f s "
                 "(cpu %.3f s)\n",
                 kind, p.wallS,
                 sumSims(p, [](auto &s) { return s.buildS + s.ctorS; }),
                 sumSims(p, [](auto &s) { return s.runS; }),
                 sumSims(p, [](auto &s) { return s.runCpuS; }));
    for (const auto &s : p.sims)
        std::fprintf(stderr,
                     "  sim %s: wall %.4f s, setup %.4f s, run %.4f s\n",
                     s.bench.c_str(), s.wallS, s.buildS + s.ctorS, s.runS);
}

/**
 * Calls @p one_pass until @p budget_s of host time is used, at least
 * @p min_passes times. The next pass starts only if one more of the
 * last pass's length still fits.
 */
template <typename F>
void
runFor(double budget_s, int min_passes, F &&one_pass)
{
    const auto start = Clock::now();
    double last = 0.0;
    for (int n = 0;; ++n) {
        const double used = seconds(start, Clock::now());
        if (n >= min_passes && used + last > budget_s)
            break;
        const auto t0 = Clock::now();
        one_pass();
        last = seconds(t0, Clock::now());
    }
}

void
checkDigests(const std::vector<PassResult> &passes, std::uint64_t want,
             const char *what, Tally &tally)
{
    for (const auto &p : passes) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s pass digest %016" PRIx64 " != %016" PRIx64,
                      what, p.digest, want);
        tally.require(p.failures() != 0 || p.digest == want, buf);
    }
}

std::vector<Metric>
endToEnd(const std::vector<PassResult> &passes, const Tally &tally)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double ok_frac =
        1.0 - static_cast<double>(tally.failed) / tally.attempted;
    return {
        {"wall_s", fastestPass(passes, [](auto &s) { return s.wallS; }),
         "s", "lower"},
        {"sim_ops_per_s",
         passes.front().simOps() /
             fastestPass(passes, [](auto &s) { return s.runS; }),
         "ops/s", "higher"},
        {"setup_s",
         fastestPass(passes, [](auto &s) { return s.buildS + s.ctorS; }),
         "s", "lower"},
        {"peak_rss_mb", ru.ru_maxrss / 1024.0, "MiB", "lower"},
        {"sim_cycles",
         medianOf(passes, [](auto &p) { return p.geomeanCycles(); }),
         "cycles", "lower"},
        {"sim_energy_pj",
         medianOf(passes, [](auto &p) { return p.geomeanEnergy(); }),
         "pJ", "lower"},
        {"ok_frac", ok_frac, "ratio", "higher"},
    };
}

std::vector<Metric>
perLayer(const WorkloadDef &w, const std::vector<PassResult> &traced,
         const std::vector<PassResult> &untraced,
         const PassResult &comparison)
{
    using lacc::prof::Bucket;
    // Counts repeat exactly across passes; take them from the first.
    const PassResult &p = traced.front();
    const auto sum = [&](const std::function<double(const SimResult &)> &f) {
        return sumSims(p, f);
    };
    const auto self_s = [&](Bucket b) {
        return medianOf(traced, [b](auto &q) { return q.prof.ns[b] * 1e-9; });
    };
    const auto calls = [&](Bucket b) {
        return static_cast<double>(p.prof.calls[b]);
    };
    const auto wall = [](auto &s) { return s.wallS; };
    const double untraced_wall = medianPass(untraced, wall);

    // Fig 1/2 waste: removed private lines used fewer than PCT times.
    double low_util = 0.0, removed = 0.0;
    for (const auto &s : p.sims) {
        for (const auto *h :
             {&s.stats.evictionUtil, &s.stats.invalidationUtil}) {
            removed += h->total();
            for (std::uint32_t u = 0; u < w.cfg.pct; ++u)
                low_util += h->counts[u];
        }
    }

    const double l1d_accesses = sum(
        [](auto &s) { return double(s.stats.totalL1dAccesses()); });
    const double l1d_misses = sum([](auto &s) {
        return s.stats.l1dMissRate() * s.stats.totalL1dAccesses();
    });
    const double l2_accesses =
        sum([](auto &s) { return double(s.stats.l2.accesses()); });
    // The directory counts an L2 miss as the fill from DRAM it causes.
    const double l2_misses =
        sum([](auto &s) { return double(s.stats.l2.fills); });
    const double next_calls =
        sum([](auto &s) { return double(s.nextCalls); });

    // The comparison pass drops the faults of a workload that injects
    // them and runs any other on the sharded engine (comparisonConfig);
    // the ratio it does not give is 1 by definition.
    double sharded_vs_serial = 1.0, fault_overhead = 1.0;
    if (w.cfg.faultKind != lacc::FaultKind::None)
        fault_overhead = untraced_wall / comparison.wallS;
    else
        sharded_vs_serial = comparison.wallS / untraced_wall;

    return {
        {"workload.build_s",
         medianPass(traced, [](auto &s) { return s.buildS; }),
         "s", nullptr},
        {"workload.next_calls", next_calls, "count", nullptr},
        {"workload.self_s", self_s(lacc::prof::Workload), "s", nullptr},
        {"system.ctor_s",
         medianPass(traced, [](auto &s) { return s.ctorS; }),
         "s", nullptr},
        {"system.warmup_s",
         medianPass(traced, [](auto &s) { return s.warmupS; }),
         "s", nullptr},
        {"system.measure_s",
         medianPass(traced, [](auto &s) { return s.measureS; }),
         "s", nullptr},
        {"system.self_s",
         medianOf(traced,
                  [](auto &q) {
                      return sumSims(q, [](auto &s) { return s.runCpuS; }) -
                             q.prof.totalNs() * 1e-9;
                  }),
         "s", nullptr},
        {"system.host_ns_per_event",
         medianPass(untraced, [](auto &s) { return s.runS; }) * 1e9 /
             next_calls,
         "ns", nullptr},
        {"system.sharded_vs_serial", sharded_vs_serial, "ratio", nullptr},
        {"protocol.self_s", self_s(lacc::prof::Protocol), "s", nullptr},
        {"protocol.calls", calls(lacc::prof::Protocol), "count", nullptr},
        {"protocol.remote_words", sum([](auto &s) {
             return double(s.stats.protocol.remoteReads +
                           s.stats.protocol.remoteWrites);
         }),
         "count", nullptr},
        {"protocol.line_grants", sum([](auto &s) {
             return double(s.stats.protocol.privateReadGrants +
                           s.stats.protocol.privateWriteGrants);
         }),
         "count", nullptr},
        {"protocol.promotions",
         sum([](auto &s) { return double(s.stats.protocol.promotions); }),
         "count", nullptr},
        {"protocol.demotions",
         sum([](auto &s) { return double(s.stats.protocol.demotions); }),
         "count", nullptr},
        {"protocol.invalidations", sum([](auto &s) {
             return double(s.stats.protocol.invalidationsSent);
         }),
         "count", nullptr},
        {"protocol.broadcast_invals", sum([](auto &s) {
             return double(s.stats.protocol.broadcastInvals);
         }),
         "count", nullptr},
        {"protocol.low_util_frac", removed > 0 ? low_util / removed : 0.0,
         "ratio", nullptr},
        {"protocol.dir_wait_cycles", sum([](auto &s) {
             return double(s.stats.totalLatency().l2Waiting);
         }),
         "cycles", nullptr},
        {"cache.self_s", self_s(lacc::prof::Cache), "s", nullptr},
        {"cache.calls", calls(lacc::prof::Cache), "count", nullptr},
        {"cache.l1d_accesses", l1d_accesses, "count", nullptr},
        {"cache.l1d_miss_rate",
         l1d_accesses > 0 ? l1d_misses / l1d_accesses : 0.0, "ratio",
         nullptr},
        {"cache.l2_miss_rate", l2_accesses > 0 ? l2_misses / l2_accesses : 0.0,
         "ratio", nullptr},
        {"cache.l1d_evictions", sum([](auto &s) {
             double n = 0;
             for (const auto &c : s.stats.perCore)
                 n += c.l1d.evictions;
             return n;
         }),
         "count", nullptr},
        {"net.self_s", self_s(lacc::prof::Network), "s", nullptr},
        {"net.calls", calls(lacc::prof::Network), "count", nullptr},
        {"net.unicasts",
         sum([](auto &s) { return double(s.stats.network.unicasts); }),
         "count", nullptr},
        {"net.broadcasts",
         sum([](auto &s) { return double(s.stats.network.broadcasts); }),
         "count", nullptr},
        {"net.flit_hops",
         sum([](auto &s) { return double(s.stats.network.flitHops); }),
         "count", nullptr},
        {"net.contention_cycles", sum([](auto &s) {
             return double(s.stats.network.contentionCycles);
         }),
         "cycles", nullptr},
        {"dram.self_s", self_s(lacc::prof::Dram), "s", nullptr},
        {"dram.accesses", sum([](auto &s) {
             return double(s.stats.protocol.dramFetches +
                           s.stats.protocol.dramWritebacks);
         }),
         "count", nullptr},
        {"dram.offchip_cycles", sum([](auto &s) {
             return double(s.stats.totalLatency().offChip);
         }),
         "cycles", nullptr},
        {"fault.link_drops",
         sum([](auto &s) { return double(s.stats.faults.linkDrops); }),
         "count", nullptr},
        {"fault.retransmits",
         sum([](auto &s) { return double(s.stats.faults.retransmits); }),
         "count", nullptr},
        {"fault.nacks",
         sum([](auto &s) { return double(s.stats.faults.nacks); }),
         "count", nullptr},
        {"fault.host_overhead", fault_overhead, "ratio", nullptr},
        {"fault.silent_corruptions", sum([](auto &s) {
             return double(s.stats.faults.silentCorruptions);
         }),
         "count", nullptr},
        {"verify.check_s",
         medianPass(traced, [](auto &s) { return s.checkS; }),
         "s", nullptr},
        {"verify.violations",
         sum([](auto &s) { return double(s.violations); }), "count",
         nullptr},
        {"energy.l1d_pj", sum([](auto &s) { return s.stats.energy.l1d; }),
         "pJ", nullptr},
        {"energy.l2_pj", sum([](auto &s) { return s.stats.energy.l2; }),
         "pJ", nullptr},
        {"energy.directory_pj",
         sum([](auto &s) { return s.stats.energy.directory; }), "pJ",
         nullptr},
        {"energy.router_pj",
         sum([](auto &s) { return s.stats.energy.router; }), "pJ",
         nullptr},
        {"energy.link_pj", sum([](auto &s) { return s.stats.energy.link; }),
         "pJ", nullptr},
        {"trace.overhead",
         medianPass(traced, wall) / untraced_wall,
         "ratio", nullptr},
    };
}

/**
 * The comparison configuration of a traced run: @p w without faults if
 * it injects them, else @p w on the sharded engine with two threads.
 */
WorkloadDef
comparisonConfig(const WorkloadDef &w)
{
    WorkloadDef out = w;
    if (w.cfg.faultKind != lacc::FaultKind::None) {
        out.cfg.faultKind = lacc::FaultKind::None;
    } else {
        out.cfg.engineKind = lacc::EngineKind::Sharded;
        out.cfg.simThreads = 2;
    }
    return out;
}

void
printResult(const Options &o, const std::vector<Metric> &metrics,
            std::uint64_t digest, const Tally &tally)
{
    std::printf("workload %s seed %" PRIu64 " fault_seed %" PRIu64
                " trace %d\n",
                o.workload.c_str(), o.seed, o.faultSeed, o.trace ? 1 : 0);
    std::printf("stats_digest %016" PRIx64 "\n", digest);
    for (const auto &m : metrics)
        std::printf("  %-28s %20.6f %-7s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(),
                    m.better ? (std::string(m.better) + " is better").c_str()
                             : "");
    for (const auto &p : tally.problems)
        std::printf("INCORRECT: %s\n", p.c_str());

    std::string json = "{\"correct\": ";
    json += tally.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", v);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                num + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const WorkloadDef w = makeWorkload(o.workload, o.seed, o.faultSeed);
    Tally tally;
    std::vector<PassResult> untraced, traced;

    if (!o.trace) {
        runFor(o.seconds, 3, [&] {
            untraced.push_back(runPass(w, false));
            logPass("untraced", untraced.back());
        });
        for (const auto &p : untraced)
            tally.add(p);
        checkDigests(untraced, untraced.front().digest, "untraced", tally);
        printResult(o, endToEnd(untraced, tally), untraced.front().digest,
                    tally);
        return 0;
    }

    // One unreported warm-up pass first: with as few as one traced and
    // one untraced pass, a cold first pass would skew every ratio.
    const PassResult warm = runPass(w, false);
    logPass("warm-up", warm);
    runFor(o.seconds - warm.wallS, 1, [&] {
        untraced.push_back(runPass(w, false));
        logPass("untraced", untraced.back());
        traced.push_back(runPass(w, true));
        logPass("traced", traced.back());
    });
    const WorkloadDef cmp_def = comparisonConfig(w);
    const PassResult cmp = runPass(cmp_def, false);
    logPass("comparison", cmp);

    const std::uint64_t want = warm.digest;
    for (const auto *set : {&untraced, &traced})
        for (const auto &p : *set)
            tally.add(p);
    tally.add(warm);
    tally.add(cmp);
    checkDigests(untraced, want, "untraced", tally);
    checkDigests(traced, want, "traced", tally);
    // The engines are bit-identical; fault-free timing is not.
    if (cmp_def.cfg.faultKind == w.cfg.faultKind)
        checkDigests({cmp}, want, "sharded-engine", tally);
    printResult(o, perLayer(w, traced, untraced, cmp), want, tally);
    return 0;
}
