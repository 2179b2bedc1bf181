/**
 * @file
 * rc_bench: host-time benchmark driver for the Rockcress simulator.
 *
 * Runs one workload through the simulator's public API for a time
 * budget and prints, as its last stdout line, one JSON object of
 * measurements (perfbench/run.py adds set-up time, the expected-cycle
 * check and the host stamp). Host seconds and simulated cycles are
 * always reported under separate names: host seconds are what a user
 * waits for, simulated cycles are a fingerprint that must stay exact.
 *
 * Workloads (closed loop, one caller; the sweep uses kSweepJobs workers):
 *   sim_long    runManycore over long pairs; Machine::run dominates.
 *   short_runs  runManycore over short pairs; fixed per-run costs
 *               (verifier, construction) dominate.
 *   sweep       ExperimentEngine::sweep, four fig17-style panels, each
 *               swept into an empty result cache, then again warm.
 *   fuzz        runTickDiffCase and runFuzzCase on every seed,
 *               runCheckpointFuzzCase on every third.
 *
 * Untraced runs time the public calls only, in whole passes over the
 * workload's operations, and scale each call's host seconds to a
 * reference host speed (see SpeedGauge). A traced run (--spans)
 * instead calls each layer's public functions one at a time inside
 * spans, cross-checks that phase driver against runManycore, and
 * reports per-layer totals per pass; the spans are written to the
 * given file at exit.
 *
 *   rc_bench --workload W --seed N --seconds S [--spans FILE]
 *            [--setup-only] [--t0 EPOCH_SECONDS]
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/perfbound.hh"
#include "analysis/verifier.hh"
#include "exp/cache.hh"
#include "exp/engine.hh"
#include "exp/json.hh"
#include "harness/runner.hh"
#include "kernels/common.hh"
#include "ref/fuzz.hh"
#include "sim/checkpoint.hh"

using namespace rockcress;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
epochNow()
{
    return std::chrono::duration<double>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Seeded Fisher-Yates: the workload seed sets the order of ops. */
template <class T>
void
shuffle(std::vector<T> &v, std::uint64_t &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[splitmix64(rng) % i]);
}

/** Linear-interpolation quantile, q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---------------------------------------------------------------------
// Spans and layer counters (traced runs only)
// ---------------------------------------------------------------------

/**
 * In-memory span recorder. Spans carry name, start, end, the index of
 * the enclosing span and the id of the operation that caused them.
 * Counters and spans recorded while `probe` is set belong to the
 * reference probe and only stand in for a layer the workload's own
 * operations never reach.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        int parent = -1;
        int op = 0;
        bool probe = false;
    };

    bool enabled = false;
    int op = 0;
    bool probe = false;

    int
    open(const char *name)
    {
        Span s;
        s.name = name;
        s.start = since(epoch_);
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.op = op;
        s.probe = probe;
        spans_.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int id)
    {
        spans_[static_cast<std::size_t>(id)].end = since(epoch_);
        stack_.pop_back();
    }

    void
    add(const std::string &name, double v)
    {
        if (enabled)
            (probe ? probeCounts_ : counts_)[name] += v;
    }

    /** Span total (seconds) and count of one name on one side. */
    std::pair<double, int>
    spanTotal(const std::string &name, bool fromProbe) const
    {
        double total = 0;
        int n = 0;
        for (const Span &s : spans_) {
            if (s.name == name && s.probe == fromProbe) {
                total += s.end - s.start;
                ++n;
            }
        }
        return {total, n};
    }

    const std::map<std::string, double> &
    counts(bool fromProbe) const
    {
        return fromProbe ? probeCounts_ : counts_;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, double> counts_;
    std::map<std::string, double> probeCounts_;
};

Tracer tracer;

/** RAII span; records nothing unless tracing is on. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name)
        : id_(tracer.enabled ? tracer.open(name) : -1)
    {
    }
    ~SpanScope()
    {
        if (id_ >= 0)
            tracer.close(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int id_;
};

// ---------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------

/** One (bench, config, machine variant) simulation point. */
struct Point
{
    std::string bench;
    std::string config;
    std::string variant;  ///< Empty: the default machine.
    RunOverrides ov;

    std::string
    label() const
    {
        return bench + "/" + config + (variant.empty() ? "" : "/" + variant);
    }
    RunPoint runPoint() const { return RunPoint{bench, config, ov}; }
};

Point
point(std::string bench, std::string config)
{
    return Point{std::move(bench), std::move(config), "", {}};
}

std::vector<Point>
simLongPoints()
{
    return {point("gesummv", "NV"), point("gramschm", "V16"),
            point("atax", "V16"),   point("bicg", "V16"),
            point("mvt", "NV_PF"),  point("3dconv", "V4"),
            point("3dconv", "NV_PF")};
}

std::vector<Point>
shortRunPoints()
{
    std::vector<Point> pts;
    for (const char *bench : {"2dconv", "bfs"})
        for (const std::string &config : allConfigNames())
            pts.push_back(point(bench, config));
    pts.push_back(point("fdtd-2d", "V16"));
    return pts;
}

/** Fig17-style panels: one machine variant each, 12 points. */
std::vector<std::vector<Point>>
sweepPanels()
{
    std::vector<std::pair<std::string, RunOverrides>> variants(4);
    variants[0].first = "";
    variants[1].first = "llc32k";
    variants[1].second.llcBankBytes = 32 * 1024;
    variants[2].first = "noc1w";
    variants[2].second.nocWidthWords = 1;
    variants[3].first = "dram2x";
    variants[3].second.dramBytesPerCycle = 32.0;
    std::vector<std::vector<Point>> panels;
    for (const auto &[name, ov] : variants) {
        std::vector<Point> panel;
        for (const char *bench : {"2dconv", "gemm", "bfs", "syrk"})
            for (const char *config : {"NV_PF", "V4", "V16"})
                panel.push_back(Point{bench, config, name, ov});
        panels.push_back(std::move(panel));
    }
    return panels;
}

constexpr int kFuzzSeeds = 150;

/** Sweep workers: a figure sweep on a small host, below nproc. */
constexpr int kSweepJobs = 2;

/** The phase driver's spans must explain this much of runManycore. */
constexpr double kMinPhaseCoverage = 0.9;

/** Fuzz case seeds drawn from the workload seed. */
std::vector<std::uint64_t>
fuzzSeeds(std::uint64_t seed)
{
    std::uint64_t rng = seed ^ 0x5eedf00dULL;
    std::uint64_t base = splitmix64(rng) >> 16;
    std::vector<std::uint64_t> seeds;
    for (int i = 0; i < kFuzzSeeds; ++i)
        seeds.push_back(base + static_cast<std::uint64_t>(i));
    return seeds;
}

/** The reference pair every traced run drives through every layer. */
Point
probePoint()
{
    return point("2dconv", "NV");
}

// ---------------------------------------------------------------------
// Outcome bookkeeping
// ---------------------------------------------------------------------

/** Attempted/failed operations and the simulated-cycle fingerprint. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::map<std::string, std::uint64_t> cycles;

    void
    fail(const std::string &what)
    {
        ++failed;
        if (errors.size() < 8)
            errors.push_back(what.substr(0, 400));
    }

    /** Account one run; a label must always simulate the same cycles. */
    bool
    result(const std::string &label, const RunResult &r)
    {
        ++attempted;
        if (!r.ok) {
            fail(label + ": " + r.error);
            return false;
        }
        auto [it, fresh] = cycles.emplace(label, r.cycles);
        if (!fresh && it->second != r.cycles) {
            fail(label + ": cycles changed between runs");
            return false;
        }
        return true;
    }

    void
    fuzzCase(const std::string &label, const FuzzCaseResult &r)
    {
        ++attempted;
        if (!r.ok)
            fail(label + ": " + r.error);
    }
};

/** Everything a run reports besides the outcome. */
struct Report
{
    int passes = 0;
    std::map<std::string, std::pair<double, std::string>> metrics;
    /** Traced metrics measured on the reference probe, not the workload. */
    std::set<std::string> probe;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = {value, unit};
    }
};

double
mean(const std::vector<double> &v)
{
    double sum = 0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------
// Host-speed gauge
// ---------------------------------------------------------------------

/** Host seconds of one timed call: as measured, and at reference speed. */
struct Sample
{
    double raw = 0;
    double ref = 0;

    Sample &
    operator+=(const Sample &o)
    {
        raw += o.raw;
        ref += o.ref;
        return *this;
    }
};

/**
 * Host speed on a shared machine drifts by tens of percent over seconds
 * to minutes as other tenants contend for the cores and caches, so raw
 * run times vary from run to run by more than a regression bound can
 * allow. The gauge times two fixed kernels of seeded random
 * read-modify-writes, one over a 256 KiB table (core-local cache) and
 * one over an 8 MiB table (spilling to the shared cache), before and
 * after a timed call once kGaugePeriodS has passed since it last did.
 * The speed factor is the geometric mean over the two kernels of
 * (reference kernel time / measured kernel time). A call's host seconds
 * times the factor (for a call longer than the period, the mean of the
 * factors before and after it) are its host seconds at the reference
 * speed. The references are about the kernels' median times on the
 * 4-core Xeon host the bounds were set on. The kernels are part of
 * the benchmark, so no change to the simulator can move them.
 */
class SpeedGauge
{
  public:
    template <class F>
    Sample
    time(F &&f)
    {
        if (factor_ == 0 || since(last_) >= kGaugePeriodS)
            measure();
        double before = factor_;
        auto t0 = Clock::now();
        f();
        double raw = since(t0);
        // A long call is scaled by the mean of the speeds around it.
        if (since(last_) < kGaugePeriodS)
            return {raw, raw * before};
        measure();
        return {raw, raw * 0.5 * (before + factor_)};
    }

    /** Time both kernels now; the tables stay resident from here on. */
    void
    measure()
    {
        double small = kernel<kSmallWords>(small_, 1000000);
        double large = kernel<kLargeWords>(large_, 150000);
        factor_ = std::sqrt((kRefSmallS / small) * (kRefLargeS / large));
        last_ = Clock::now();
    }

    /** Resident size of the tables, which peak_rss_mb leaves out. */
    static constexpr double
    tableMiB()
    {
        return static_cast<double>((kSmallWords + kLargeWords) *
                                   sizeof(std::uint64_t)) /
               (1024.0 * 1024.0);
    }

  private:
    static constexpr double kGaugePeriodS = 0.1;
    static constexpr std::size_t kSmallWords = 1u << 15;
    static constexpr std::size_t kLargeWords = 1u << 20;
    static constexpr double kRefSmallS = 2.2e-3;
    static constexpr double kRefLargeS = 2.3e-3;

    template <std::size_t Words>
    double
    kernel(std::vector<std::uint64_t> &table, int iters)
    {
        table.resize(Words, 1);
        auto t0 = Clock::now();
        std::uint64_t rng = 7;
        for (int i = 0; i < iters; ++i) {
            std::uint64_t x = splitmix64(rng);
            table[x & (Words - 1)] += x ^ table[(x >> 20) & (Words - 1)];
        }
        return since(t0);
    }

    std::vector<std::uint64_t> small_, large_;
    double factor_ = 0;
    Clock::time_point last_;
};

SpeedGauge gauge;

/** Untraced-run samples: host seconds of each pass and of each case. */
struct Timings
{
    std::vector<Sample> passes;
    std::vector<Sample> cases;  ///< Every case of every pass.

    /**
     * wall_s is the mean pass and the percentiles pool every case, all
     * at reference speed; raw_wall_s is the mean pass as measured.
     */
    void
    report(Report &rep) const
    {
        std::vector<double> ref, raw, caseRef;
        for (const Sample &s : passes) {
            ref.push_back(s.ref);
            raw.push_back(s.raw);
        }
        for (const Sample &s : cases)
            caseRef.push_back(s.ref);
        rep.passes = static_cast<int>(passes.size());
        rep.set("wall_s", mean(ref), "s");
        rep.set("raw_wall_s", mean(raw), "s");
        rep.set("case_p50_ms", 1e3 * quantile(caseRef, 0.5), "ms");
        rep.set("case_p90_ms", 1e3 * quantile(caseRef, 0.9), "ms");
        rep.set("cases", static_cast<double>(cases.size()), "count");
    }
};

// ---------------------------------------------------------------------
// The phase driver: runManycore's sequence, one layer call per span
// ---------------------------------------------------------------------

/** What the phase driver measured for one point. */
struct PhaseResult
{
    bool ok = false;
    std::string error;
    Cycle cycles = 0;
    std::uint64_t issued = 0;
    std::uint64_t icacheAccesses = 0;
    std::uint64_t nocWordHops = 0;
    std::uint64_t vloadWords = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t ticks = 0;
    std::uint64_t skips = 0;
};

MachineParams
paramsFor(const Point &p, const BenchConfig &cfg)
{
    // The same derivation as runManycore.
    MachineParams params = machineFor(cfg, p.ov.cols, p.ov.rows);
    params.dramBytesPerCycle = p.ov.dramBytesPerCycle;
    params.llcTotalBytes =
        p.ov.llcBankBytes * static_cast<Addr>(params.numBanks());
    params.nocWidthWords = p.ov.nocWidthWords;
    return params;
}

/**
 * Save a snapshot of the finished machine, restore it into a freshly
 * prepared twin and re-save: the two snapshots must be byte-identical.
 */
std::string
checkpointRoundTrip(Machine &machine, const Point &p,
                    const BenchConfig &cfg, const MachineParams &params)
{
    std::vector<std::uint8_t> bytes;
    {
        SpanScope s("ckpt.save");
        bytes = saveCheckpoint(machine, p.label());
    }
    tracer.add("ckpt.bytes", static_cast<double>(bytes.size()));
    std::unique_ptr<Machine> twin;
    {
        SpanScope s("ckpt.prepare_twin");
        twin = std::make_unique<Machine>(params);
        makeBenchmark(p.bench)->prepare(*twin, cfg);
    }
    {
        SpanScope s("ckpt.restore");
        restoreCheckpoint(*twin, bytes);
    }
    if (saveCheckpoint(*twin, p.label()) != bytes)
        return "checkpoint re-save differs from the saved snapshot";
    return "";
}

/**
 * Construct, prepare, verify, bound, run, check, read statistics and
 * tear down one point, each step in its own span, adding the layer
 * counters; optionally round-trip a checkpoint of the final state.
 */
PhaseResult
runPhases(const Point &p, bool ckpt)
{
    PhaseResult out;
    try {
        BenchConfig cfg = configByName(p.config);
        MachineParams params = paramsFor(p, cfg);
        std::unique_ptr<Machine> machine;
        {
            SpanScope s("machine.construct");
            machine = std::make_unique<Machine>(params);
        }
        auto benchmark = makeBenchmark(p.bench);
        std::shared_ptr<const Program> program;
        {
            SpanScope s("kernels.prepare");
            program = benchmark->prepare(*machine, cfg);
        }
        tracer.add("isa.program_insts", program->size());
        {
            SpanScope s("analysis.verify");
            VerifyReport report = verifyProgram(*program, cfg, params);
            if (!report.ok()) {
                out.error = report.text(*program);
                return out;
            }
        }
        {
            SpanScope s("analysis.perfbound");
            computePerfBound(*program, cfg, params);
        }
        machine->setNaiveTick(p.ov.naiveTick);
        {
            SpanScope s("sim.run");
            out.cycles = machine->run(p.ov.maxCycles);
        }
        if (!machine->finished()) {
            out.error = "machine did not finish";
            return out;
        }
        {
            SpanScope s("kernels.check");
            out.error = benchmark->check(machine->mem());
        }
        if (!out.error.empty())
            return out;
        {
            SpanScope s("machine.stats");
            const StatRegistry &st = machine->stats();
            out.issued = st.sumSuffix(".issued");
            out.icacheAccesses = st.sumSuffix("icache.accesses");
            out.nocWordHops = st.get("noc.word_hops");
            out.vloadWords = st.sumSuffix(".vload_words");
            std::uint64_t respWords = 0;
            for (int b = 0; b < params.numBanks(); ++b) {
                std::string pre = "llc" + std::to_string(b) + ".";
                out.llcAccesses += st.get(pre + "accesses");
                out.llcMisses += st.get(pre + "misses");
                respWords += st.get(pre + "response_words");
            }
            out.ticks = machine->ticksExecuted();
            out.skips = machine->ticksSkipped();
            tracer.add("sim.cycles", static_cast<double>(out.cycles));
            tracer.add("sim.ticks", static_cast<double>(out.ticks));
            tracer.add("sim.skips", static_cast<double>(out.skips));
            tracer.add("core.issued", static_cast<double>(out.issued));
            tracer.add("noc.packets",
                       static_cast<double>(st.get("noc.packets")));
            tracer.add("noc.word_hops",
                       static_cast<double>(out.nocWordHops));
            tracer.add("inet.sends",
                       static_cast<double>(st.get("inet.sends")));
            tracer.add("llc.accesses",
                       static_cast<double>(out.llcAccesses));
            tracer.add("llc.misses", static_cast<double>(out.llcMisses));
            tracer.add("llc.response_words",
                       static_cast<double>(respWords));
            tracer.add("mem.vload_words",
                       static_cast<double>(out.vloadWords));
        }
        if (ckpt) {
            out.error = checkpointRoundTrip(*machine, p, cfg, params);
            if (!out.error.empty())
                return out;
        }
        {
            SpanScope s("machine.teardown");
            machine.reset();
        }
        out.ok = true;
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = e.what();
    }
    return out;
}

/** The phase driver must reproduce runManycore's simulation exactly. */
std::string
crossCheck(const PhaseResult &ph, const RunResult &r)
{
    auto missRate = [](std::uint64_t misses, std::uint64_t accesses) {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(accesses);
    };
    if (!ph.ok)
        return "phase driver failed: " + ph.error;
    if (!r.ok)
        return "runManycore failed: " + r.error;
    if (ph.cycles != r.cycles)
        return "cycles " + std::to_string(ph.cycles) + " vs " +
               std::to_string(r.cycles);
    if (ph.issued != r.issued || ph.icacheAccesses != r.icacheAccesses ||
        ph.nocWordHops != r.nocWordHops ||
        ph.vloadWords * wordBytes != r.vloadBytes ||
        missRate(ph.llcMisses, ph.llcAccesses) != r.llcMissRate)
        return "statistics differ from runManycore";
    if (ph.ticks != r.diag.simTicks || ph.skips != r.diag.simSkips)
        return "scheduler tick/skip counts differ from runManycore";
    return "";
}

// ---------------------------------------------------------------------
// Workload runners
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    int jobs = 1;  ///< Sweep workers: kSweepJobs, capped at nproc.
    std::string spans;
    bool setupOnly = false;
    double t0 = 0;
};

/** A scratch directory inside the build tree, removed on exit. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : path_(fs::path(".bench_build") / "run" /
                (tag + "-" + std::to_string(::getpid())))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

    /** A fresh, not yet existing subdirectory path. */
    std::string
    fresh()
    {
        fs::path p = path_ / ("c" + std::to_string(next_++));
        fs::remove_all(p);
        return p.string();
    }

  private:
    fs::path path_;
    int next_ = 0;
};

double
dirBytes(const std::string &dir)
{
    double total = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec))
        if (e.is_regular_file())
            total += static_cast<double>(e.file_size());
    return total;
}

/**
 * Whole passes, each calling `run(op)` once per op in an order
 * reshuffled per pass, while the next pass is expected to end within
 * the budget; at least two passes, so there is a warm one. `run`
 * returns the Sample of its timed part.
 */
template <class Op, class Run>
Timings
runPasses(std::vector<Op> ops, const Args &a, std::uint64_t &rng, Run &&run)
{
    Timings t;
    auto start = Clock::now();
    double lastPass = 0;
    while (t.passes.size() < 2 || since(start) + lastPass <= a.seconds) {
        shuffle(ops, rng);
        auto p0 = Clock::now();
        Sample pass;
        for (const Op &op : ops) {
            t.cases.push_back(run(op));
            pass += t.cases.back();
        }
        t.passes.push_back(pass);
        lastPass = since(p0);
    }
    return t;
}

/** cold_s is the first pass after set-up, warm_s the mean of the rest. */
void
reportFirstPassCold(const Timings &t, Report &rep)
{
    t.report(rep);
    std::vector<double> warm;
    for (std::size_t i = 1; i < t.passes.size(); ++i)
        warm.push_back(t.passes[i].ref);
    rep.set("cold_s", t.passes.front().ref, "s");
    rep.set("warm_s", mean(warm), "s");
}

void
timedManycore(const std::vector<Point> &pts, const Args &a,
              std::uint64_t &rng, Outcome &out, Report &rep)
{
    Timings t = runPasses(pts, a, rng, [&](const Point &p) {
        RunResult r;
        Sample s = gauge.time(
            [&] { r = runManycore(p.bench, p.config, p.ov); });
        out.result(p.label(), r);
        return s;
    });
    reportFirstPassCold(t, rep);
}

/** Cold sweep into `dir`, then the same sweep warm; checks both. */
std::pair<Sample, Sample>
sweepColdWarm(const std::vector<Point> &panel, const std::string &dir,
              int jobs, Outcome &out, std::vector<RunResult> *coldOut,
              SweepStats *coldStats)
{
    ExperimentEngine::Options o;
    o.jobs = jobs;
    o.cacheDir = dir;
    o.progress = false;
    o.audit = 0;
    ExperimentEngine engine(o);
    std::vector<RunPoint> rps;
    for (const Point &p : panel)
        rps.push_back(p.runPoint());

    std::vector<RunResult> cold;
    Sample coldS = gauge.time([&] {
        SpanScope s("exp.sweep_cold");
        cold = engine.sweep(rps);
    });
    if (coldStats != nullptr)
        *coldStats = engine.lastSweep();
    for (std::size_t i = 0; i < panel.size(); ++i)
        out.result(panel[i].label(), cold[i]);

    std::vector<RunResult> warm;
    Sample warmS = gauge.time([&] {
        SpanScope s("exp.sweep_warm");
        warm = engine.sweep(rps);
    });
    int hits = engine.lastSweep().cacheHits;
    tracer.add("exp.cache_hits", hits);
    for (std::size_t i = 0; i < panel.size(); ++i) {
        ++out.attempted;
        if (!(warm[i] == cold[i]))
            out.fail(panel[i].label() +
                     ": warm result differs from cold result");
    }
    if (hits != static_cast<int>(panel.size())) {
        out.fail("warm sweep: " + std::to_string(hits) + " cache hits of " +
                 std::to_string(panel.size()));
    }
    if (coldOut != nullptr)
        *coldOut = std::move(cold);
    return {coldS, warmS};
}

void
timedSweep(const std::vector<std::vector<Point>> &panels, const Args &a,
           std::uint64_t &rng, ScratchDir &scratch, Outcome &out,
           Report &rep)
{
    double cold = 0, warm = 0;
    Timings t = runPasses(panels, a, rng, [&](std::vector<Point> panel) {
        shuffle(panel, rng);
        auto [c, w] = sweepColdWarm(panel, scratch.fresh(), a.jobs, out,
                                    nullptr, nullptr);
        cold += c.ref;
        warm += w.ref;
        return c += w;
    });
    t.report(rep);
    auto passes = static_cast<double>(t.passes.size());
    rep.set("cold_s", cold / passes, "s");
    rep.set("warm_s", warm / passes, "s");
}

/** One fuzz case: kind 0 tick-diff, 1 cosim, 2 checkpoint. */
struct FuzzOp
{
    int kind = 0;
    std::uint64_t seed = 0;

    std::string
    label() const
    {
        static const char *names[] = {"tickdiff", "cosim", "ckpt"};
        return std::string(names[kind]) + ":" + std::to_string(seed);
    }

    FuzzCaseResult
    run() const
    {
        static const char *spans[] = {"ref.tickdiff_case",
                                      "ref.cosim_case", "ref.ckpt_case"};
        SpanScope s(spans[kind]);
        tracer.add("ref.cases", 1);
        switch (kind) {
          case 0:
            return runTickDiffCase(seed);
          case 1:
            return runFuzzCase(seed);
          default:
            return runCheckpointFuzzCase(seed);
        }
    }
};

std::vector<FuzzOp>
fuzzOps(std::uint64_t seed)
{
    std::vector<FuzzOp> ops;
    std::vector<std::uint64_t> seeds = fuzzSeeds(seed);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
        ops.push_back({0, seeds[i]});
        ops.push_back({1, seeds[i]});
        if (i % 3 == 0)
            ops.push_back({2, seeds[i]});
    }
    return ops;
}

void
timedFuzz(const Args &a, std::uint64_t &rng, Outcome &out, Report &rep)
{
    Timings t = runPasses(fuzzOps(a.seed), a, rng, [&](const FuzzOp &op) {
        FuzzCaseResult r;
        Sample s = gauge.time([&] { r = op.run(); });
        out.fuzzCase(op.label(), r);
        return s;
    });
    reportFirstPassCold(t, rep);
}

// ---------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------

/**
 * runManycore and the phase driver on the same point; compare. The
 * two run in alternating order so host drift favours neither.
 */
void
tracedPair(const Point &p, bool phasesFirst, Outcome &out)
{
    RunResult r;
    PhaseResult ph;
    auto harness = [&] {
        SpanScope s("harness.run_manycore");
        r = runManycore(p.bench, p.config, p.ov);
    };
    auto phases = [&] {
        SpanScope s("harness.phase_driver");
        ph = runPhases(p, true);
    };
    if (phasesFirst) {
        phases();
        harness();
    } else {
        harness();
        phases();
    }
    out.result(p.label(), r);
    ++out.attempted;
    std::string diff = crossCheck(ph, r);
    if (!diff.empty())
        out.fail(p.label() + ": phase driver: " + diff);
}

/**
 * Per point, serially: cache key, load (miss), runPoint, store, load
 * (hit), and the phase driver for the layer split. Returns the serial
 * seconds the engine's per-point work took.
 */
double
tracedSweepPoints(const std::vector<Point> &panel,
                  const std::vector<RunResult> &cold,
                  const std::string &dir, Outcome &out)
{
    ResultCache cache(dir);
    double serial = 0;
    for (std::size_t i = 0; i < panel.size(); ++i) {
        tracer.op = static_cast<int>(i);
        const Point &p = panel[i];
        auto s0 = Clock::now();
        std::string key;
        {
            SpanScope s("exp.cache_key");
            key = ExperimentEngine::cacheKey(p.runPoint());
        }
        RunResult loaded;
        bool hit = false;
        {
            SpanScope s("exp.cache_load");
            hit = cache.load(key, loaded);
        }
        RunResult r;
        {
            SpanScope s("exp.run_point");
            r = ExperimentEngine::runPoint(p.runPoint());
        }
        {
            SpanScope s("exp.cache_store");
            cache.store(key, r);
        }
        serial += since(s0);
        ++out.attempted;
        if (hit || !(r == cold[i]))
            out.fail(p.label() + ": serial point differs from the sweep");
        {
            SpanScope s("exp.cache_load");
            hit = cache.load(key, loaded);
        }
        ++out.attempted;
        if (!hit || !(loaded == r))
            out.fail(p.label() + ": stored result does not load back");
        PhaseResult ph = runPhases(p, false);
        ++out.attempted;
        std::string diff = crossCheck(ph, cold[i]);
        if (!diff.empty())
            out.fail(p.label() + ": phase driver: " + diff);
    }
    return serial;
}

/** Traced sweep of one panel; returns (cold sweep wall, serial work). */
std::pair<double, double>
tracedPanel(const std::vector<Point> &panel, int jobs, ScratchDir &scratch,
            Outcome &out)
{
    std::string dir = scratch.fresh();
    std::vector<RunResult> cold;
    SweepStats st;
    double c = sweepColdWarm(panel, dir, jobs, out, &cold, &st).first.raw;
    tracer.add("exp.simulated", st.simulated);
    tracer.add("exp.duplicates", st.duplicates);
    tracer.add("exp.cache_bytes", dirBytes(dir));
    double serial = tracedSweepPoints(panel, cold, scratch.fresh(), out);
    return {c, serial};
}

/**
 * The reference probe: drive probePoint() through every layer once, so
 * a layer the workload's own operations never reach still reports a
 * measured value (marked as probe data in the span file).
 */
void
runProbe(int jobs, ScratchDir &scratch, Outcome &out)
{
    tracer.probe = true;
    tracer.op = -1;
    tracedPair(probePoint(), false, out);
    std::vector<Point> panel = {probePoint(), point("2dconv", "NV_PF")};
    auto [c, serial] = tracedPanel(panel, jobs, scratch, out);
    tracer.add("exp.parallel_eff_num", serial);
    tracer.add("exp.parallel_eff_den", jobs * c);
    for (int kind = 0; kind < 3; ++kind) {
        FuzzOp op{kind, 0x5eed};
        out.fuzzCase(op.label(), op.run());
    }
    tracer.probe = false;
}

/**
 * Per-layer metrics from the spans and counters of a traced run.
 * @return The share of the workload's runManycore time its phase
 *         spans cover (1 when only the probe ran both).
 */
double
reportLayers(Report &rep, int passes)
{
    // A layer the workload reached is reported per workload pass; one
    // it never reached falls back to the probe's single pass, and the
    // metric is listed in rep.probe.
    auto span = [&](const std::string &name) {
        auto [w, n] = tracer.spanTotal(name, false);
        if (n > 0)
            return w / passes;
        rep.probe.insert(name + "_s");
        return tracer.spanTotal(name, true).first;
    };
    auto count = [&](const std::string &name) {
        const auto &wc = tracer.counts(false);
        if (auto it = wc.find(name); it != wc.end())
            return it->second / passes;
        rep.probe.insert(name);
        const auto &pc = tracer.counts(true);
        auto it = pc.find(name);
        return it == pc.end() ? 0.0 : it->second;
    };
    auto derived = [&](const char *name, std::vector<std::string> inputs) {
        for (const std::string &in : inputs)
            if (rep.probe.count(in) > 0)
                rep.probe.insert(name);
    };
    for (const char *name :
         {"machine.construct", "machine.teardown", "kernels.prepare",
          "kernels.check", "analysis.verify", "analysis.perfbound",
          "sim.run", "ckpt.save", "ckpt.restore", "exp.cache_key",
          "exp.cache_load", "exp.cache_store", "exp.run_point",
          "ref.tickdiff_case", "ref.cosim_case", "ref.ckpt_case",
          "harness.run_manycore"})
        rep.set(std::string(name) + "_s", span(name), "s");
    for (const char *name :
         {"isa.program_insts", "sim.cycles", "sim.ticks", "sim.skips",
          "core.issued", "noc.packets", "noc.word_hops", "inet.sends",
          "llc.accesses", "llc.misses", "llc.response_words",
          "mem.vload_words", "exp.cache_hits", "exp.simulated",
          "exp.duplicates", "ref.cases"})
        rep.set(name, count(name), "count");
    rep.set("ckpt.bytes", count("ckpt.bytes"), "B");
    rep.set("exp.cache_bytes", count("exp.cache_bytes"), "B");

    double insts = count("isa.program_insts");
    double verify = span("analysis.verify");
    rep.set("analysis.us_per_inst", insts > 0 ? 1e6 * verify / insts : 0,
            "us");
    double ticks = count("sim.ticks"), skips = count("sim.skips");
    double run = span("sim.run");
    rep.set("sim.skip_frac", ticks + skips > 0 ? skips / (ticks + skips) : 0,
            "ratio");
    rep.set("sim.ns_per_tick", ticks > 0 ? 1e9 * run / ticks : 0, "ns");
    rep.set("sim.mcps", run > 0 ? count("sim.cycles") / run / 1e6 : 0,
            "Mcycles/s");
    double num = count("exp.parallel_eff_num");
    double den = count("exp.parallel_eff_den");
    rep.set("exp.parallel_eff", den > 0 ? num / den : 0, "ratio");

    // harness.other_s: runManycore time that the phase spans of the
    // same pairs (children of harness.phase_driver) do not cover.
    bool fromProbe =
        tracer.spanTotal("harness.run_manycore", false).second == 0;
    double harness =
        tracer.spanTotal("harness.run_manycore", fromProbe).first;
    double phases = 0;
    const std::vector<Tracer::Span> &spans = tracer.spans();
    for (const Tracer::Span &s : spans) {
        if (s.probe == fromProbe && s.parent >= 0 &&
            s.name != "ckpt.save" && s.name != "ckpt.restore" &&
            s.name != "ckpt.prepare_twin" &&
            spans[static_cast<std::size_t>(s.parent)].name ==
                "harness.phase_driver")
            phases += s.end - s.start;
    }
    int div = fromProbe ? 1 : passes;
    rep.set("harness.other_s", (harness - phases) / div, "s");
    rep.set("harness.phase_coverage", harness > 0 ? phases / harness : 0,
            "ratio");

    derived("analysis.us_per_inst", {"isa.program_insts", "analysis.verify_s"});
    for (const char *name : {"sim.skip_frac", "sim.ns_per_tick", "sim.mcps"})
        derived(name, {"sim.ticks", "sim.run_s"});
    derived("exp.parallel_eff", {"exp.parallel_eff_num"});
    derived("harness.other_s", {"harness.run_manycore_s"});
    derived("harness.phase_coverage", {"harness.run_manycore_s"});
    std::erase_if(rep.probe, [&](const std::string &name) {
        return rep.metrics.count(name) == 0;
    });
    return fromProbe ? 1.0 : phases / harness;
}

void
tracedRun(const Args &a, std::uint64_t &rng, ScratchDir &scratch,
          Outcome &out, Report &rep)
{
    tracer.enabled = true;
    auto start = Clock::now();
    int passes = 0;
    double cold = 0, serial = 0;
    double lastPass = 0;
    // Whole passes only, so per-pass counts repeat exactly.
    while (passes == 0 || since(start) + lastPass <= a.seconds) {
        auto p0 = Clock::now();
        if (a.workload == "sweep") {
            std::vector<std::vector<Point>> panels = sweepPanels();
            shuffle(panels, rng);
            for (auto &panel : panels) {
                shuffle(panel, rng);
                auto [c, s] = tracedPanel(panel, a.jobs, scratch, out);
                cold += c;
                serial += s;
            }
        } else if (a.workload == "fuzz") {
            std::vector<FuzzOp> ops = fuzzOps(a.seed);
            shuffle(ops, rng);
            for (std::size_t i = 0; i < ops.size(); ++i) {
                tracer.op = static_cast<int>(i);
                out.fuzzCase(ops[i].label(), ops[i].run());
            }
        } else {
            std::vector<Point> pts = a.workload == "sim_long"
                                         ? simLongPoints()
                                         : shortRunPoints();
            shuffle(pts, rng);
            for (std::size_t i = 0; i < pts.size(); ++i) {
                tracer.op = static_cast<int>(i);
                tracedPair(pts[i], i % 2 == 1, out);
            }
        }
        ++passes;
        lastPass = since(p0);
    }
    if (cold > 0) {
        tracer.add("exp.parallel_eff_num", serial);
        tracer.add("exp.parallel_eff_den", a.jobs * cold);
    }
    runProbe(a.jobs, scratch, out);
    tracer.enabled = false;
    rep.passes = passes;
    double coverage = reportLayers(rep, passes);
    if (coverage < kMinPhaseCoverage) {
        ++out.attempted;
        out.fail("phase spans cover " + std::to_string(coverage) +
                 " of runManycore time, below " +
                 std::to_string(kMinPhaseCoverage));
    }
}

// ---------------------------------------------------------------------
// Set-up, output, main
// ---------------------------------------------------------------------

/** The untimed warm-up call that ends set-up. */
void
warmUp(const Args &a, Outcome &out)
{
    if (a.workload == "fuzz") {
        out.fuzzCase("warmup", runTickDiffCase(fuzzSeeds(a.seed)[0] - 1));
    } else if (a.workload == "sweep") {
        ExperimentEngine::Options o;
        o.jobs = a.jobs;
        o.progress = false;
        o.audit = 0;
        ExperimentEngine engine(o);  // No cache directory: cache off.
        Point p = probePoint();
        out.result(p.label(), engine.sweep({p.runPoint()}).at(0));
    } else {
        Point p = probePoint();
        out.result(p.label(), runManycore(p.bench, p.config, p.ov));
    }
}

void
writeSpans(const std::string &path, const Json &host)
{
    std::ofstream os(path);
    os << host.dump() << "\n";
    for (const Tracer::Span &s : tracer.spans()) {
        Json j = Json::object();
        j["name"] = s.name;
        j["start"] = s.start;
        j["end"] = s.end;
        j["parent"] = static_cast<double>(s.parent);
        j["op"] = static_cast<double>(s.op);
        j["probe"] = s.probe;
        os << j.dump() << "\n";
    }
    if (!os)
        throw std::runtime_error("cannot write span file " + path);
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + k);
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--spans")
            a.spans = value();
        else if (k == "--t0")
            a.t0 = std::stod(value());
        else if (k == "--setup-only")
            a.setupOnly = true;
        else
            return false;
    }
    return a.workload == "sim_long" || a.workload == "short_runs" ||
           a.workload == "sweep" || a.workload == "fuzz";
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    try {
        if (!parseArgs(argc, argv, a)) {
            std::cerr << "usage: rc_bench --workload "
                         "sim_long|short_runs|sweep|fuzz --seed N "
                         "--seconds S [--spans FILE] "
                         "[--setup-only] [--t0 EPOCH]\n";
            return 2;
        }
    } catch (const std::exception &e) {
        std::cerr << "rc_bench: " << e.what() << "\n";
        return 2;
    }
    if (a.t0 == 0)
        a.t0 = epochNow();
    unsigned hw = std::thread::hardware_concurrency();
    a.jobs = std::max(1, std::min(kSweepJobs, static_cast<int>(hw)));

    Json host = Json::object();
    host["nproc"] = static_cast<std::uint64_t>(hw);
    host["compiler"] = RC_BENCH_COMPILER;
    host["build_type"] = RC_BENCH_BUILD_TYPE;
    host["jobs"] = static_cast<std::uint64_t>(a.jobs);

    Outcome out;
    Report rep;
    try {
        // Set-up: the op list, the scratch (cache) directory, the speed
        // gauge's tables and one untimed warm-up call.
        std::uint64_t rng = a.seed;
        ScratchDir scratch(a.workload);
        gauge.measure();
        warmUp(a, out);
        double setup = epochNow() - a.t0;
        if (a.setupOnly) {
            Json j = Json::object();
            j["setup_s"] = setup;
            j["ok"] = out.failed == 0;
            std::cout << j.dump() << std::endl;
            return out.failed == 0 ? 0 : 1;
        }
        rep.set("setup_s", setup, "s");

        if (!a.spans.empty()) {
            tracedRun(a, rng, scratch, out, rep);
        } else if (a.workload == "sweep") {
            timedSweep(sweepPanels(), a, rng, scratch, out, rep);
        } else if (a.workload == "fuzz") {
            timedFuzz(a, rng, out, rep);
        } else {
            timedManycore(a.workload == "sim_long" ? simLongPoints()
                                                   : shortRunPoints(),
                          a, rng, out, rep);
        }
        rep.set("peak_rss_mb", peakRssMiB() - SpeedGauge::tableMiB(), "MiB");
        if (!a.spans.empty())
            writeSpans(a.spans, host);
    } catch (const std::exception &e) {
        out.fail(std::string("benchmark aborted: ") + e.what());
    }

    Json j = Json::object();
    j["workload"] = a.workload;
    j["seed"] = a.seed;
    j["passes"] = static_cast<std::uint64_t>(rep.passes);
    j["attempted"] = out.attempted;
    j["failed"] = out.failed;
    Json errors = Json::array();
    for (const std::string &e : out.errors)
        errors.push(e);
    j["errors"] = errors;
    Json cycles = Json::object();
    for (const auto &[label, c] : out.cycles)
        cycles[label] = static_cast<std::uint64_t>(c);
    j["cycles"] = cycles;
    Json metrics = Json::object();
    for (const auto &[name, vu] : rep.metrics) {
        Json m = Json::object();
        m["value"] = vu.first;
        m["unit"] = vu.second;
        metrics[name] = m;
    }
    j["metrics"] = metrics;
    Json probe = Json::array();
    for (const std::string &name : rep.probe)
        probe.push(name);
    j["probe_metrics"] = probe;
    j["host"] = host;
    std::cout << j.dump() << std::endl;
    return 0;
}
