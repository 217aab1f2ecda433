/**
 * @file
 * Campaign benchmark program. One process runs one grid once and prints
 * every cell and its own timings as JSON lines; run.py spawns a fresh
 * process per grid, so no pool, cache handle, or other in-process state
 * carries over from one timed grid to the next.
 *
 *   campaign_bench grid GRID SEEDS [CACHE_DIR]
 *       The grid through runCampaignSuite on the threaded tier and a
 *       4-thread pool, every other CampaignConfig knob at its default.
 *   campaign_bench setup GRID SEEDS [CACHE_DIR]
 *       Everything grid does before its suite call, then exit: the
 *       process's set-up alone.
 *   campaign_bench fill GRID SEEDS CACHE_DIR PART PARTS
 *       Workloads PART, PART + PARTS, ... of the grid on a 1-thread
 *       pool, filling CACHE_DIR; PARTS such processes side by side fill
 *       the whole grid. Suite workers that store bundles concurrently
 *       race on the IR printer's process-global name map
 *       (src/ir/printer.cc), which can write a bundle that fails to load
 *       or, worse, loads as a different program. Processes do not share
 *       that map, and one worker stores its bundles one at a time.
 *   campaign_bench trace GRID SEEDS [CACHE_DIR [RESTORE_DIR]]
 *       The same grid replayed cell by cell through each layer's entry
 *       points, with one span per call. Spans stay in memory and are
 *       printed when the replay ends. With RESTORE_DIR, every
 *       characterization is then stored once more into that directory,
 *       to time the bundle stores the suite does not time itself.
 *   campaign_bench replay GRID SEEDS [CACHE_DIR]
 *       The same replay with the tracer off: the base of the tracing
 *       overhead.
 *   campaign_bench reference GRID SEEDS
 *       The grid on the reference path: interpreter tier, blind
 *       sampling.
 *
 * GRID is figs, blind_seeds or fig12; SEEDS is a comma-separated list
 * of injection seeds.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/campaign_internal.hh"
#include "fault/sampling_plan.hh"
#include "fault/suite.hh"
#include "frontend/compile.hh"
#include "profile/value_profiler.hh"
#include "service/artifact_cache.hh"
#include "support/error.hh"
#include "support/task_pool.hh"
#include "support/text.hh"

using namespace softcheck;
using namespace softcheck::campaign_detail;

namespace
{

constexpr unsigned kPoolThreads = 4;

struct GridSpec
{
    std::vector<std::string> workloads;
    std::vector<HardeningMode> modes;
    unsigned trials = 0;
    SamplingPlan sampling = SamplingPlan::Blind;
};

GridSpec
gridSpec(const std::string &name)
{
    const std::vector<HardeningMode> all_modes = {
        HardeningMode::Original, HardeningMode::DupOnly,
        HardeningMode::DupValChks, HardeningMode::FullDup};
    GridSpec g;
    if (name == "figs" || name == "fig12") {
        for (const Workload *w : allWorkloads())
            g.workloads.push_back(w->name);
        g.modes = all_modes;
        if (name == "figs") {
            g.trials = 1000;
            g.sampling = SamplingPlan::Stratified;
        }
    } else if (name == "blind_seeds") {
        // The four longest golden runs; every trial executes.
        g.workloads = {"h264enc", "h264dec", "mp3dec", "kmeans"};
        g.modes = {HardeningMode::Original, HardeningMode::DupValChks};
        g.trials = 1000;
    } else {
        scFatal("unknown grid '", name, "'");
    }
    return g;
}

SuiteConfig
suiteConfig(const GridSpec &g, const std::vector<uint64_t> &seeds,
            ExecTier tier, SamplingPlan sampling,
            const std::string &cache_dir)
{
    SuiteConfig s;
    s.workloads = g.workloads;
    s.modes = g.modes;
    s.seeds = seeds;
    s.base.trials = g.trials;
    s.base.seed = seeds.front();
    s.base.threads = kPoolThreads;
    s.base.tier = tier;
    s.base.sampling = sampling;
    s.base.artifactCacheDir = cache_dir;
    return s;
}

std::vector<uint64_t>
parseSeeds(const std::string &text)
{
    std::vector<uint64_t> seeds;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = std::min(text.find(',', pos), text.size());
        const std::string item = text.substr(pos, comma - pos);
        char *end = nullptr;
        const unsigned long long v = std::strtoull(item.c_str(), &end, 0);
        if (item.empty() || *end != '\0')
            scFatal("bad seed '", item, "'");
        seeds.push_back(v);
        pos = comma + 1;
    }
    return seeds;
}

const char *
modeKey(HardeningMode m)
{
    switch (m) {
      case HardeningMode::Original: return "original";
      case HardeningMode::DupOnly: return "dup_only";
      case HardeningMode::DupValChks: return "dup_val_chks";
      case HardeningMode::FullDup: return "full_dup";
    }
    return "?";
}

/** Grid-cell id: workload/mode, plus /seed when trials run (the
 * fault-free cells of a trials = 0 grid do not depend on the seed). */
std::string
cellKey(const CampaignConfig &c)
{
    std::string k = c.workload + "/" + modeKey(c.mode);
    if (c.trials > 0)
        k += strformat("/%#llx", static_cast<unsigned long long>(c.seed));
    return k;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/**
 * Peak resident set of this process since exec (VmHWM). getrusage's
 * ru_maxrss is no substitute: it also counts the address space the
 * process had before exec, i.e. its parent's resident memory at fork.
 */
uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    scFatal("no VmHWM in /proc/self/status");
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One probe thread's work: a fixed switch-dispatch loop over a private
 * 64 KiB table. */
uint64_t
probeWork(uint64_t seed)
{
    constexpr unsigned kSteps = 10'000'000;
    std::vector<uint32_t> mem(16384);
    std::vector<uint8_t> code(4096);
    uint64_t x = seed;
    for (uint8_t &c : code) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        c = static_cast<uint8_t>((x >> 59) & 7);
    }
    uint64_t acc = seed;
    uint64_t pc = 0;
    for (unsigned i = 0; i < kSteps; ++i) {
        switch (code[pc & 4095]) {
          case 0: acc += mem[acc & 16383]; break;
          case 1: mem[(acc >> 3) & 16383] ^= static_cast<uint32_t>(acc); break;
          case 2: acc = acc * 31 + i; break;
          case 3: pc += (acc & 1) * 7; break;
          case 4: acc ^= acc >> 13; break;
          case 5: mem[i & 16383] += static_cast<uint32_t>(pc); break;
          case 6: acc = (acc << 5) | (acc >> 59); break;
          default: pc += acc & 3; break;
        }
        ++pc;
    }
    return acc;
}

/**
 * Host-speed probe: wall seconds of kPoolThreads threads running
 * probeWork side by side. It shares no code with the library, so a
 * library change cannot move it, but it slows with the host: on a
 * shared host, other tenants change the speed of every thread by tens
 * of percent within minutes. run.py scales grid times by it. @p check
 * receives the work's result, so the work cannot be optimized away.
 */
double
probeSeconds(uint64_t &check)
{
    std::vector<uint64_t> out(kPoolThreads);
    const int64_t t0 = nowNs();
    {
        // jthread joins when the vector goes out of scope, on every path.
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < kPoolThreads; ++t)
            threads.emplace_back([&out, t] { out[t] = probeWork(t + 1); });
    }
    const double seconds = static_cast<double>(nowNs() - t0) * 1e-9;
    check = 0;
    for (const uint64_t v : out)
        check ^= v;
    return seconds;
}

/** Builds one JSON object; keys and string values need no escaping. */
class Json
{
  public:
    Json &
    num(const char *key, uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    Json &
    real(const char *key, double v)
    {
        return raw(key, strformat("%.9g", v));
    }

    Json &
    str(const char *key, const std::string &v)
    {
        return raw(key, "\"" + v + "\"");
    }

    Json &
    raw(const char *key, const std::string &json)
    {
        text += (text.empty() ? "{\"" : ",\"") + std::string(key) +
                "\":" + json;
        return *this;
    }

    std::string
    done() const
    {
        return text.empty() ? "{}" : text + "}";
    }

  private:
    std::string text;
};

std::string
reportJson(const HardeningReport &r)
{
    return Json()
        .num("state_vars", r.stateVars)
        .num("shadow_phis", r.shadowPhis)
        .num("duplicated_instrs", r.duplicatedInstrs)
        .num("eq_checks", r.eqChecks)
        .num("value_checks", r.valueChecks)
        .num("check_one", r.checkOne)
        .num("check_two", r.checkTwo)
        .num("check_range", r.checkRange)
        .num("suppressed_by_opt1", r.suppressedByOpt1)
        .num("opt2_stops", r.opt2Stops)
        .num("suppressed_useless", r.suppressedUseless)
        .num("check_ids", r.numCheckIds)
        .num("vacuous_checks", r.vacuousChecks)
        .num("fp_risk_checks", r.fpRiskChecks)
        .num("static_instrs", r.stats.totalInstructions)
        .num("static_phis", r.stats.phiNodes)
        .num("static_loads", r.stats.loads)
        .num("static_stores", r.stats.stores)
        .done();
}

void
printCell(const CampaignResult &r)
{
    Json counts;
    for (unsigned o = 0; o < kNumOutcomes; ++o)
        counts.num(outcomeName(static_cast<Outcome>(o)), r.counts[o]);
    const uint64_t skipped =
        r.trialsStaticallyResolved + r.trialsClassMembers;
    std::printf(
        "%s\n",
        Json()
            .str("kind", "cell")
            .str("cell", cellKey(r.config))
            .raw("counts", counts.done())
            .num("usdc_large", r.usdcLargeChange)
            .num("usdc_small", r.usdcSmallChange)
            .num("golden_dyn_instrs", r.goldenDynInstrs)
            .num("golden_cycles", r.goldenCycles)
            .num("baseline_cycles", r.baselineCycles)
            .num("disabled_checks", r.disabledCheckCount)
            .raw("report", reportJson(r.report))
            .num("served_from_cache", r.servedFromCache)
            .num("snapshots", r.snapshotCount)
            .num("snapshot_bytes", r.snapshotBytes)
            .num("trials", r.totalTrials())
            .num("skipped", skipped)
            .num("ff_replay_instrs", r.ffReplayInstrs)
            .num("ff_restore_pages", r.ffRestorePages)
            .done()
            .c_str());
}

Json
runJson(const char *mode, const std::string &grid, unsigned pool_threads)
{
    Json j;
    j.str("kind", "run")
        .str("mode", mode)
        .str("grid", grid)
        .num("pool_threads", pool_threads)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("compiler", PERFBENCH_COMPILER);
    return j;
}

/** The timed path: one runCampaignSuite call, tracing off. @p mode is
 * grid, setup, fill, or reference (see the file comment); a fill runs
 * workloads @p part, @p part + @p parts, ... only. */
int
runGrid(const std::string &mode, const std::string &grid,
        const std::vector<uint64_t> &seeds, const std::string &cache_dir,
        unsigned part = 0, unsigned parts = 1)
{
    GridSpec g = gridSpec(grid);
    if (mode == "fill") {
        std::vector<std::string> mine;
        for (std::size_t i = part; i < g.workloads.size(); i += parts)
            mine.push_back(g.workloads[i]);
        g.workloads = mine;
    }
    SuiteConfig cfg =
        mode == "reference"
            ? suiteConfig(g, seeds, ExecTier::Interp, SamplingPlan::Blind, "")
            : suiteConfig(g, seeds, ExecTier::Threaded, g.sampling,
                          cache_dir);
    if (mode == "fill")
        cfg.base.threads = 1;
    const int64_t call_ns = nowNs();
    if (mode == "setup") {
        std::printf("%s\n", runJson("setup", grid, cfg.base.threads)
                                .num("call_ns", static_cast<uint64_t>(call_ns))
                                .done()
                                .c_str());
        return 0;
    }
    const double cpu0 = cpuSeconds();
    const SuiteResult r = runCampaignSuite(cfg);
    const double wall = static_cast<double>(nowNs() - call_ns) * 1e-9;
    const double cpu = cpuSeconds() - cpu0;
    const uint64_t peak_rss_kb = peakRssKb();
    // After the timed call and the memory reading, so it moves neither.
    uint64_t probe_check = 0;
    const double probe = mode == "grid" ? probeSeconds(probe_check) : 0.0;

    for (const CampaignResult &c : r.cells)
        printCell(c);
    std::printf("%s\n", runJson(mode.c_str(), grid, cfg.base.threads)
                            .num("call_ns", static_cast<uint64_t>(call_ns))
                            .real("wall_s", wall)
                            .real("cpu_s", cpu)
                            .num("peak_rss_kb", peak_rss_kb)
                            .real("probe_s", probe)
                            .num("probe_check", probe_check)
                            .done()
                            .c_str());
    return 0;
}

// ---- traced replay ---------------------------------------------------

struct Span
{
    std::string name;
    int parent = -1;
    std::string cell;
    int64_t startNs = 0;
    int64_t endNs = 0;
    unsigned thread = 0;
    /** A share of one call's duration, taken from the phase fields
     * its result carries, not timed around a call of its own. */
    bool split = false;
};

/** Small per-thread ids, in order of first use. */
unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned id = next.fetch_add(1);
    return id;
}

/** Spans in memory. A tracer that is off records nothing, so the same
 * replay run with it off is the base the tracing overhead is taken
 * from. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on(on) {}

    int
    begin(const std::string &name, int parent, const std::string &cell)
    {
        if (!on)
            return -1;
        Span s{name, parent, cell, nowNs(), 0, threadIndex(), false};
        std::lock_guard lock(mu);
        spans.push_back(std::move(s));
        return static_cast<int>(spans.size() - 1);
    }

    void
    end(int id)
    {
        if (!on)
            return;
        const int64_t t = nowNs();
        std::lock_guard lock(mu);
        spans[static_cast<std::size_t>(id)].endNs = t;
    }

    /** Record a split span [@p start_ns, + @p seconds). Returns its end. */
    int64_t
    split(const std::string &name, int parent, const std::string &cell,
          int64_t start_ns, double seconds)
    {
        const int64_t end_ns =
            start_ns + static_cast<int64_t>(seconds * 1e9);
        if (!on)
            return end_ns;
        std::lock_guard lock(mu);
        spans.push_back(
            Span{name, parent, cell, start_ns, end_ns, threadIndex(), true});
        return end_ns;
    }

    void
    print() const
    {
        std::lock_guard lock(mu);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            std::printf("%s\n",
                        Json()
                            .str("kind", "span")
                            .num("id", i)
                            .str("name", s.name)
                            .raw("parent", std::to_string(s.parent))
                            .str("cell", s.cell)
                            .num("start_ns", static_cast<uint64_t>(s.startNs))
                            .num("end_ns", static_cast<uint64_t>(s.endNs))
                            .num("thread", s.thread)
                            .num("split", s.split)
                            .done()
                            .c_str());
        }
    }

  private:
    const bool on;
    mutable std::mutex mu;
    std::vector<Span> spans;
};

class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const std::string &name, int parent,
               const std::string &cell)
        : tracer(t), id(t.begin(name, parent, cell))
    {
    }
    ~ScopedSpan() { tracer.end(id); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    Tracer &tracer;
    const int id;
};

/**
 * characterizeCell under one span, split into its layers by the phase
 * times its result carries, in the order the call runs them.
 */
CellCharacterization
tracedCharacterize(Tracer &tr, int parent, const CampaignConfig &cfg,
                   const SharedArtifacts *shared, SnapshotAccounting *pages)
{
    const std::string key = cellKey(cfg);
    const ScopedSpan call(tr, "characterizeCell", parent, key);
    const int64_t t0 = nowNs();
    CellCharacterization cell = characterizeCell(cfg, shared, pages);
    const CampaignPhaseTimes &p = cell.proto.phase;
    int64_t t = t0;
    if (p.profileSeconds > 0)
        t = tr.split("profile.collect", call.id, key, t, p.profileSeconds);
    t = tr.split("core.build", call.id, key, t, p.compileSeconds);
    if (p.baselineSeconds > 0)
        t = tr.split("interp.baseline", call.id, key, t, p.baselineSeconds);
    tr.split("interp.golden", call.id, key, t, p.goldenSeconds);
    return cell;
}

void
tracedStore(Tracer &tr, int parent, const CampaignConfig &cfg,
            const CellCharacterization &cell)
{
    const ScopedSpan s(tr, "service.cache_store", parent, cellKey(cfg));
    service::storeCachedCell(cfg, cell);
}

/** The suite's per-workload shared artifacts, built by the same calls
 * and served to the workload's cells the same way. */
struct WorkloadArtifacts
{
    SharedArtifacts sa;
    PreparedModule baselineModule;
    HardeningReport baselineReport;
    ProfileData profile;
    WorkloadRunSpec testSpec;
    PreparedRun pristine;
};

void
buildWorkloadArtifacts(Tracer &tr, int parent, const Workload &w,
                       const CampaignConfig &proto, bool wants_profile,
                       WorkloadArtifacts &a)
{
    // buildModule(w, Original, ...) in two spans, so the MiniLang
    // compile is timed on its own.
    PreparedModule &pm = a.baselineModule;
    {
        const ScopedSpan s(tr, "frontend.compile", parent, w.name);
        pm.mod = compileMiniLang(w.source, w.name);
    }
    {
        const ScopedSpan s(tr, "core.build", parent, w.name);
        assignProfileSites(*pm.mod);
        HardeningOptions hopts;
        hopts.mode = HardeningMode::Original;
        hopts.enableOpt1 = proto.enableOpt1;
        hopts.enableOpt2 = proto.enableOpt2;
        hopts.elideVacuousChecks = proto.elideVacuousChecks;
        a.baselineReport = hardenModule(*pm.mod, hopts, nullptr);
        pm.em = std::make_unique<ExecModule>(*pm.mod);
        if (proto.tier != ExecTier::Interp)
            pm.tm = std::make_unique<ThreadedModule>(*pm.em);
        pm.entryIdx = pm.em->functionIndex(w.entry);
    }
    a.sa.baselineModule = &a.baselineModule;
    a.sa.baselineReport = &a.baselineReport;
    const bool train_role = !proto.swapTrainTest;
    if (wants_profile) {
        const ScopedSpan s(tr, "profile.collect", parent, w.name);
        a.profile = collectProfile(w, proto, train_role);
        a.sa.profile = &a.profile;
    }
    {
        const ScopedSpan s(tr, "workloads.input", parent, w.name);
        a.testSpec = w.makeInput(!train_role);
        a.pristine = prepareRun(a.testSpec);
    }
    a.sa.testSpec = &a.testSpec;
    a.sa.pristine = &a.pristine;
    {
        const ScopedSpan s(tr, "interp.baseline", parent, w.name);
        a.sa.baseline = runBaseline(w, a.baselineModule, a.testSpec, proto);
    }
}

/** One (cell, seed) trial phase: the plan, then the batches on @p pool. */
CampaignResult
tracedTrials(Tracer &tr, int parent, TaskPool &pool,
             const CellCharacterization &cell, const CampaignConfig &cfg,
             TrialWorkerCache &cache)
{
    const std::string key = cellKey(cfg);
    if (cfg.trials == 0) {
        CampaignResult r = cell.proto;
        r.config = cfg;
        return r;
    }
    const bool stratified = cfg.sampling == SamplingPlan::Stratified;
    StratifiedPlan plan;
    std::vector<ClassOutcome> class_out;
    if (stratified) {
        const ScopedSpan s(tr, "fault.plan", parent, key);
        plan = buildStratifiedPlan(cell, cfg);
        class_out.resize(plan.classes.size());
    }
    const StratifiedPlan *plan_p = stratified ? &plan : nullptr;
    std::vector<ClassOutcome> *co_p = stratified ? &class_out : nullptr;

    TrialAccum accum;
    const ScopedSpan phase(tr, "fault.trials", parent, key);
    const unsigned batch =
        trialBatchSize(cfg.trials, pool.threadCount(), cfg.tier);
    std::vector<TaskPool::TaskId> ids;
    for (unsigned first = 0; first < cfg.trials; first += batch) {
        const unsigned last = std::min(first + batch, cfg.trials);
        ids.push_back(pool.submit([&, first, last] {
            const ScopedSpan s(tr, "fault.trial_batch", phase.id, key);
            runTrialBatch(cell, cfg, first, last, cache, accum, plan_p,
                          co_p);
        }));
    }
    for (const TaskPool::TaskId id : ids)
        pool.wait(id);
    return finalizeTrialResult(cell, cfg, accum, plan_p, co_p);
}

/**
 * Replay the grid the way runCampaignSuite computes it — the same
 * shared per-workload artifacts, cache probes, loads and stores, plans
 * and trial batches — but one workload and one cell at a time, with
 * every call under a span. Only the trial batches run on the pool.
 */
int
runTrace(bool traced, const std::string &grid,
         const std::vector<uint64_t> &seeds, const std::string &cache_dir,
         const std::string &restore_dir)
{
    const GridSpec g = gridSpec(grid);
    const SuiteConfig cfg = suiteConfig(g, seeds, ExecTier::Threaded,
                                        g.sampling, cache_dir);
    Tracer tr(traced);
    TaskPool pool(kPoolThreads);
    const double cpu0 = cpuSeconds();
    const int64_t t0 = nowNs();
    const int root = tr.begin("grid", -1, grid);

    // Keep-alive for every characterization until the grid is done,
    // as the suite does (the page accounting indexes block addresses).
    std::deque<WorkloadArtifacts> artifacts;
    std::deque<SnapshotAccounting> pages;
    std::deque<CellCharacterization> chars;
    std::vector<CampaignConfig> char_cfgs; // parallel to chars
    std::vector<CampaignResult> results;
    uint64_t hits = 0;

    for (const std::string &name : g.workloads) {
        const Workload &w = getWorkload(name);
        CampaignConfig proto = cfg.base;
        proto.workload = name;
        const int wspan = tr.begin("workload", root, name);

        std::vector<CampaignConfig> mode_cfgs;
        std::vector<bool> probed;
        bool any_miss = false;
        bool wants_profile = false;
        for (const HardeningMode m : g.modes) {
            mode_cfgs.push_back(proto);
            mode_cfgs.back().mode = m;
            probed.push_back(service::probeCachedCell(mode_cfgs.back()));
            any_miss |= !probed.back();
            wants_profile |= !probed.back() && m == HardeningMode::DupValChks;
        }
        artifacts.emplace_back();
        pages.emplace_back();
        if (any_miss)
            buildWorkloadArtifacts(tr, wspan, w, proto, wants_profile,
                                   artifacts.back());

        const std::size_t first_char = chars.size();
        for (std::size_t mi = 0; mi < g.modes.size(); ++mi) {
            const CampaignConfig &mc = mode_cfgs[mi];
            const int cspan = tr.begin("cell", wspan, cellKey(mc));
            chars.emplace_back();
            char_cfgs.push_back(mc);
            bool hit = false;
            if (probed[mi]) {
                const ScopedSpan s(tr, "service.cache_load", cspan,
                                   cellKey(mc));
                hit = service::loadCachedCell(mc, chars.back());
            }
            if (hit) {
                ++hits;
            } else {
                // A probed bundle that fails to load is recomputed
                // standalone, as obtainCharacterization does.
                chars.back() = tracedCharacterize(
                    tr, cspan, mc,
                    probed[mi] ? nullptr : &artifacts.back().sa,
                    &pages.back());
                if (!cache_dir.empty())
                    tracedStore(tr, cspan, mc, chars.back());
            }
            tr.end(cspan);
        }

        for (std::size_t mi = 0; mi < g.modes.size(); ++mi) {
            const CellCharacterization &cell = chars[first_char + mi];
            TrialWorkerCache cache;
            for (const uint64_t seed : seeds) {
                CampaignConfig sc = mode_cfgs[mi];
                sc.seed = seed;
                const int pspan = tr.begin("cell_seed", wspan, cellKey(sc));
                results.push_back(
                    tracedTrials(tr, pspan, pool, cell, sc, cache));
                tr.end(pspan);
            }
        }
        tr.end(wspan);
    }
    tr.end(root);
    const double replay_wall = static_cast<double>(nowNs() - t0) * 1e-9;
    const double replay_cpu = cpuSeconds() - cpu0;

    // The replay stored only the cells it recomputed; store the loaded
    // ones too, so the store spans cover every characterization once.
    if (!restore_dir.empty()) {
        const int rspan = tr.begin("restore", -1, grid);
        for (std::size_t ci = 0; ci < chars.size(); ++ci) {
            if (!chars[ci].proto.servedFromCache)
                continue;
            CampaignConfig rc = char_cfgs[ci];
            rc.artifactCacheDir = restore_dir;
            tracedStore(tr, rspan, rc, chars[ci]);
        }
        tr.end(rspan);
    }

    for (const CampaignResult &r : results)
        printCell(r);
    tr.print();
    std::printf("%s\n", runJson(traced ? "trace" : "replay", grid,
                                kPoolThreads)
                            .real("wall_s", replay_wall)
                            .real("cpu_s", replay_cpu)
                            .num("cells", results.size())
                            .num("cells_requested", chars.size())
                            .num("cache_hits", hits)
                            .done()
                            .c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: campaign_bench grid GRID SEEDS [CACHE_DIR]\n"
                 "       campaign_bench setup GRID SEEDS [CACHE_DIR]\n"
                 "       campaign_bench fill GRID SEEDS CACHE_DIR PART PARTS\n"
                 "       campaign_bench reference GRID SEEDS\n"
                 "       campaign_bench trace GRID SEEDS [CACHE_DIR "
                 "[RESTORE_DIR]]\n"
                 "       campaign_bench replay GRID SEEDS [CACHE_DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // This hook re-executes every statically resolved trial, which
    // would inflate every stratified number without changing a count.
    if (std::getenv("SOFTCHECK_VALIDATE_STATIC_MASKED")) {
        std::fprintf(stderr, "campaign_bench: refusing to run with "
                             "SOFTCHECK_VALIDATE_STATIC_MASKED set\n");
        return 2;
    }
    if (argc < 4)
        return usage();
    const std::string mode = argv[1];
    const std::string grid = argv[2];
    const std::string cache_dir = argc > 4 ? argv[4] : "";
    try {
        const std::vector<uint64_t> seeds = parseSeeds(argv[3]);
        if (((mode == "grid" || mode == "setup") && argc <= 5) ||
            (mode == "reference" && argc == 4))
            return runGrid(mode, grid, seeds, cache_dir);
        if (mode == "fill" && argc == 7) {
            const unsigned part = static_cast<unsigned>(std::stoul(argv[5]));
            const unsigned parts = static_cast<unsigned>(std::stoul(argv[6]));
            if (parts == 0 || part >= parts)
                return usage();
            return runGrid(mode, grid, seeds, cache_dir, part, parts);
        }
        if (mode == "trace" && argc <= 6)
            return runTrace(true, grid, seeds, cache_dir,
                            argc > 5 ? argv[5] : "");
        if (mode == "replay" && argc <= 5)
            return runTrace(false, grid, seeds, cache_dir, "");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "campaign_bench: %s\n", e.what());
        return 1;
    }
    return usage();
}
