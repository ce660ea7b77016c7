/**
 * @file
 * cbsbench: the set-up and measurement processes behind
 * cbsbench/run.py. Every invocation does one thing and prints one JSON
 * line, so run.py can run each timed repetition in a fresh process
 * and read its peak RSS from wait4().
 *
 *   cbsbench setup <workload> <seed> <dir> [--smoke]
 *       Generate the workload's trace from the synth span models,
 *       write it to <dir>, and compute the reference output by a
 *       different execution path than the one measured.
 *   cbsbench rep <workload> <dir> [--traced]
 *       One closed-loop repetition: the entry call users make
 *       (app::runAnalysis or runServe), timed, with its output checked
 *       against the reference. --traced instead makes the same layer
 *       calls from this file with spans around them and reports
 *       per-layer self times plus the unattributed residual.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/cache_mrc.h"
#include "app/analysis_run.h"
#include "common/flat_map.h"
#include "obs/metrics.h"
#include "serve/serve.h"
#include "snapshot/snapshot.h"
#include "synth/models.h"
#include "synth/population.h"
#include "trace/bin_trace.h"
#include "trace/cbt2.h"
#include "trace/csv.h"
#include "trace/open.h"
#include "trace/tailing.h"
#include "trace/trace_source.h"

using namespace cbs;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

enum class Kind
{
    AnalyzeMrcCsv, //!< serial runAnalysis + MRC cache sim over CSV
    AnalyzeCbt2,   //!< sharded runAnalysis over CBT2, no cache sim
    ServeCsv,      //!< runServe draining a finished CSV in windows
};

struct Workload
{
    const char *name;
    Kind kind;
    bool msrc;              //!< MSRC span model (else AliCloud)
    std::size_t volumes;
    std::uint64_t records;  //!< exact input size
    std::size_t smoke_volumes;
    std::uint64_t smoke_records;
};

// Sizes keep one repetition at a few seconds on a 4-core machine, so a
// run holds several repetitions. The AliCloud inputs keep the paper's
// 1,000 volumes.
constexpr Workload kWorkloads[] = {
    {"analyze-mrc-alicloud-csv", Kind::AnalyzeMrcCsv, false, 1000,
     600000, 50, 20000},
    {"analyze-msrc-cbt2-x3", Kind::AnalyzeCbt2, true, 36, 1500000, 8,
     20000},
    {"serve-alicloud-csv-6h", Kind::ServeCsv, false, 100, 400000, 50,
     20000},
};

constexpr std::size_t kBatchRecords = 4096;
constexpr std::size_t kThreads = 3;
constexpr TimeUs kWindowSpan = 6 * units::hour;

/** Analyzer names of the WorkloadSummary bundle, in bundle order. */
const char *const kBundleAnalyzers[] = {
    "basic_stats",    "size_stats",   "active_days",  "wr_ratio",
    "load_intensity", "interarrival", "activeness",   "randomness",
    "block_traffic",  "update_coverage", "temporal_pairs",
    "update_interval"};

const Workload &
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return w;
    CBS_FATAL("unknown workload '" << name << "'");
}

std::string tracePath(const std::string &dir, const char *ext)
{
    return dir + "/trace." + ext;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    CBS_EXPECT(in, "cannot read " << path);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    CBS_EXPECT(out, "cannot write " << path);
}

/** Record count and last timestamp of the generated trace, written at
 *  set-up for the repetitions that need them. */
struct Meta
{
    std::uint64_t records = 0;
    TimeUs last_timestamp = 0;
};

Meta
readMeta(const std::string &dir)
{
    Meta meta;
    std::istringstream in(readFile(dir + "/meta.txt"));
    in >> meta.records >> meta.last_timestamp;
    CBS_EXPECT(in && meta.records > 0, "bad " << dir << "/meta.txt");
    return meta;
}

app::CacheSimOptions
mrcCache()
{
    app::CacheSimOptions cache;
    cache.policy = "lru";
    cache.mode = app::CacheSimMode::Mrc;
    cache.fractions = {0.01, 0.10};
    return cache;
}

/** The entry call the analyze workloads measure. */
app::AnalysisRunOptions
entryOptions(const Workload &w, const std::string &dir)
{
    app::AnalysisRunOptions options;
    options.batch_records = kBatchRecords;
    if (w.kind == Kind::AnalyzeMrcCsv) {
        options.path = tracePath(dir, "csv");
        options.cache = mrcCache();
    } else {
        options.path = tracePath(dir, "cbt2");
        options.threads = kThreads;
        options.ingest_lanes = 1;
    }
    return options;
}

std::string
summaryJson(const WorkloadSummary &summary)
{
    std::ostringstream os;
    summary.writeJson(os);
    return std::move(os).str();
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

/**
 * Keep exactly @p want of @p all, in their original order, giving each
 * volume the share of @p want its profile expects (largest remainder;
 * a volume whose stream came up short keeps all it has and the volumes
 * with the most to spare make up the difference). Within a volume the
 * kept records are a uniform choice. Thinning instead of truncating
 * keeps the full trace duration; fixed per-volume counts keep every
 * seed's input the same size and the same mix of volumes.
 */
std::vector<IoRequest>
thin(const std::vector<IoRequest> &all,
     const std::vector<VolumeProfile> &profiles, std::uint64_t want,
     std::uint64_t seed)
{
    CBS_EXPECT(all.size() >= want, "span model produced "
                                       << all.size() << " records, need "
                                       << want);
    const std::size_t volumes = profiles.size();
    std::vector<std::uint64_t> have(volumes, 0), quota(volumes, 0);
    for (const IoRequest &req : all) {
        CBS_EXPECT(req.volume < volumes, "volume " << req.volume
                                                   << " has no profile");
        ++have[req.volume];
    }

    double expected = 0.0;
    for (const VolumeProfile &profile : profiles)
        expected += profile.expectedRequests();
    std::vector<std::pair<double, std::size_t>> remainders;
    std::uint64_t assigned = 0;
    for (std::size_t v = 0; v < volumes; ++v) {
        double share = static_cast<double>(want) *
                       profiles[v].expectedRequests() / expected;
        quota[v] = static_cast<std::uint64_t>(share);
        assigned += quota[v];
        remainders.emplace_back(share - static_cast<double>(quota[v]), v);
    }
    std::sort(remainders.begin(), remainders.end(), std::greater<>());
    for (std::size_t i = 0; assigned < want; ++i, ++assigned)
        ++quota[remainders[i].second];

    std::uint64_t deficit = 0;
    for (std::size_t v = 0; v < volumes; ++v) {
        if (quota[v] > have[v]) {
            deficit += quota[v] - have[v];
            quota[v] = have[v];
        }
    }
    std::vector<std::size_t> spare(volumes);
    std::iota(spare.begin(), spare.end(), 0);
    std::stable_sort(spare.begin(), spare.end(), [&](auto a, auto b) {
        return have[a] - quota[a] > have[b] - quota[b];
    });
    for (std::size_t v : spare) {
        std::uint64_t take = std::min(deficit, have[v] - quota[v]);
        quota[v] += take;
        deficit -= take;
    }

    // Selection sampling per volume: keep a record with probability
    // (still to keep) / (still to see).
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<IoRequest> kept;
    kept.reserve(want);
    for (const IoRequest &req : all) {
        if (rng() % have[req.volume] < quota[req.volume]) {
            kept.push_back(req);
            --quota[req.volume];
        }
        --have[req.volume];
    }
    CBS_EXPECT(kept.size() == want, "thinning kept " << kept.size()
                                                     << " records, want "
                                                     << want);
    return kept;
}

template <class Writer>
void
writeTrace(const std::string &path, const std::vector<IoRequest> &trace)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    CBS_EXPECT(out, "cannot write " << path);
    Writer writer(out);
    for (const IoRequest &req : trace)
        writer.write(req);
    if constexpr (!std::is_same_v<Writer, AliCloudCsvWriter>)
        writer.finish();
    out.flush();
    CBS_EXPECT(out, "cannot write " << path);
}

int
setup(const Workload &w, std::uint64_t seed, const std::string &dir,
      bool smoke)
{
    fs::create_directories(dir);
    const std::uint64_t want = smoke ? w.smoke_records : w.records;
    const std::size_t volumes = smoke ? w.smoke_volumes : w.volumes;

    auto t0 = Clock::now();
    // Bursty streams land well below or above their expected count.
    // Generating half as much again as is kept leaves thinning enough
    // to choose from without thinning away most of each volume's
    // sequential runs.
    SpanScale scale{volumes, static_cast<double>(want) * 1.5};
    PopulationSpec spec =
        w.msrc ? msrcSpanSpec(scale) : aliCloudSpanSpec(scale);
    // The volume population (rates, working sets, write mix) defines
    // the workload and is drawn once, with the benches' fixed seed;
    // the run's seed draws every volume's request stream. Otherwise a
    // few heavy volumes drawn by one seed and not another would move
    // time and memory more than any change under test.
    std::vector<VolumeProfile> profiles = sampleProfiles(spec, kBenchSeed);
    for (VolumeProfile &profile : profiles)
        profile.seed = mix64(profile.seed ^ mix64(seed));
    std::vector<IoRequest> trace =
        thin(drain(*makeTrace(profiles)), profiles, want, seed);

    auto t1 = Clock::now();
    switch (w.kind) {
    case Kind::AnalyzeMrcCsv:
        writeTrace<AliCloudCsvWriter>(tracePath(dir, "csv"), trace);
        writeTrace<BinTraceWriter>(tracePath(dir, "bin"), trace);
        break;
    case Kind::AnalyzeCbt2:
        writeTrace<Cbt2Writer>(tracePath(dir, "cbt2"), trace);
        break;
    case Kind::ServeCsv:
        writeTrace<AliCloudCsvWriter>(tracePath(dir, "csv"), trace);
        break;
    }
    {
        std::ostringstream meta;
        meta << trace.size() << ' ' << trace.back().timestamp << '\n';
        writeFile(dir + "/meta.txt", meta.str());
    }

    // The reference takes a different execution path than the
    // measured call: the row kernels over the binary encoding, the
    // serial pipeline, or the batch run serve's cumulative partial is
    // documented to equal byte for byte (docs/serving.md, "The parity
    // contract": the row-kernel `analyze --scalar --emit-partial`; the
    // columnar partial sums some f64 histogram totals in another order).
    auto t2 = Clock::now();
    app::AnalysisRunOptions ref;
    ref.batch_records = kBatchRecords;
    switch (w.kind) {
    case Kind::AnalyzeMrcCsv: {
        ref.path = tracePath(dir, "bin");
        ref.columnar = false;
        ref.cache = mrcCache();
        app::AnalysisRunResult result = app::runAnalysis(ref);
        writeFile(dir + "/reference.json", summaryJson(*result.summary));
        break;
    }
    case Kind::AnalyzeCbt2: {
        ref.path = tracePath(dir, "cbt2");
        app::AnalysisRunResult result = app::runAnalysis(ref);
        writeFile(dir + "/reference.json", summaryJson(*result.summary));
        break;
    }
    case Kind::ServeCsv:
        ref.path = tracePath(dir, "csv");
        ref.columnar = false;
        ref.emit_partial = dir + "/reference.cbss";
        app::runAnalysis(ref);
        break;
    }
    auto t3 = Clock::now();

    std::printf("{\"setup_s\": %.9g, \"generate_s\": %.9g, "
                "\"write_s\": %.9g, \"reference_s\": %.9g, "
                "\"records\": %llu}\n",
                seconds(t0, t3), seconds(t0, t1), seconds(t1, t2),
                seconds(t2, t3),
                static_cast<unsigned long long>(trace.size()));
    return 0;
}

// ---------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------

/**
 * Bench-side timing decorator. Forwards every TraceSource hook to the
 * wrapped source — nextColumns included, so a CBT2 reader keeps its
 * zero-copy columns — and keeps the time spent inside it, the records
 * it served, and one entry per poll.
 */
class TimedSource : public TraceSource
{
  public:
    struct Poll
    {
        Clock::time_point begin, end;
        std::size_t records = 0;
        TimeUs last_timestamp = 0; //!< valid when records > 0
    };

    explicit TimedSource(TraceSource &inner) : inner_(inner) {}

    bool
    next(IoRequest &req) override
    {
        auto begin = Clock::now();
        bool got = inner_.next(req);
        note(begin, got ? 1 : 0, got ? req.timestamp : 0);
        return got;
    }

    void reset() override { inner_.reset(); }

    std::uint64_t sizeHint() const override { return inner_.sizeHint(); }

    /** Seconds spent inside the wrapped source so far. */
    double busySeconds() const { return busy_s_; }

    /** Records served so far, across resets. */
    std::uint64_t records() const { return records_; }

    const std::vector<Poll> &polls() const { return polls_; }

  protected:
    std::size_t
    nextBatchImpl(std::vector<IoRequest> &out,
                  std::size_t max_requests) override
    {
        auto begin = Clock::now();
        std::size_t n = inner_.nextBatch(out, max_requests);
        note(begin, n, n ? out.back().timestamp : 0);
        return n;
    }

    std::size_t
    nextColumnsImpl(RequestBatch &out, std::size_t max_requests) override
    {
        auto begin = Clock::now();
        std::size_t n = inner_.nextColumns(out, max_requests);
        note(begin, n, n ? out.ts()[n - 1] : 0);
        return n;
    }

  private:
    void
    note(Clock::time_point begin, std::size_t n, TimeUs last)
    {
        Poll poll{begin, Clock::now(), n, last};
        busy_s_ += seconds(poll.begin, poll.end);
        records_ += n;
        polls_.push_back(poll);
    }

    TraceSource &inner_;
    double busy_s_ = 0.0;
    std::uint64_t records_ = 0;
    std::vector<Poll> polls_;
};

using Layers = std::map<std::string, double>;

/**
 * Every per-layer metric a traced repetition reports (BENCHMARK.json
 * lists the same names, plus trace_overhead, which run.py
 * computes). A layer the workload bypasses or does not expose reads 0.
 */
std::vector<std::string>
layerNames()
{
    std::vector<std::string> names = {
        "trace.open_s",        "trace.decode_s",
        "trace.extent_scan_s", "trace.passes",
        "trace.bad_records",   "analysis.pipeline_self_s",
        "analysis.finalize_s"};
    for (const char *name : kBundleAnalyzers)
        names.push_back(std::string("analysis.analyzer.") + name +
                        ".busy_s");
    for (std::size_t i = 0; i < kThreads; ++i)
        for (const char *what : {".busy_s", ".idle_s", ".queue_full_waits"})
            names.push_back("analysis.lane." + std::to_string(i) + what);
    for (const char *name :
         {"analysis.merge_s", "analysis.shard_skew",
          "analysis.critical_path_s", "cache.mrc_self_s", "serve.poll_s",
          "serve.batch_s", "serve.window_close_s", "serve.final_flush_s",
          "serve.windows", "serve.checkpoints", "serve.output_bytes",
          "snapshot.state_bytes", "report.summary_json_s",
          "report.summary_json_bytes", "residual_s", "traced_wall_s"})
        names.push_back(name);
    return names;
}

struct RepResult
{
    bool completed = false; //!< the entry call returned
    bool ok = false;        //!< ...and its output matched the reference
    std::string error;
    double wall_s = 0.0;
    std::uint64_t records = 0;
    std::vector<double> closes_ms; //!< serve: one per boundary poll
    Layers layers;                 //!< --traced only
};

/** Sum of the registry's nanosecond counter/histogram @p name, in s. */
double
registrySeconds(const obs::MetricsRegistry &registry,
                const std::string &name)
{
    if (const obs::Counter *c = registry.findCounter(name))
        return static_cast<double>(c->value()) * 1e-9;
    if (const obs::Histogram *h = registry.findHistogram(name))
        return static_cast<double>(h->sum()) * 1e-9;
    return 0.0;
}

double
registryCount(const obs::MetricsRegistry &registry,
              const std::string &name)
{
    const obs::Counter *c = registry.findCounter(name);
    return c ? static_cast<double>(c->value()) : 0.0;
}

/** One repetition of an analyze workload through app::runAnalysis. */
void
analyzeRep(const Workload &w, const std::string &dir, RepResult &rep)
{
    app::AnalysisRunOptions options = entryOptions(w, dir);
    auto begin = Clock::now();
    app::AnalysisRunResult result = app::runAnalysis(options);
    std::string json = result.empty() ? "" : summaryJson(*result.summary);
    rep.wall_s = seconds(begin, Clock::now());
    rep.completed = true;
    rep.records = result.record_count;
    rep.ok = !result.empty() && !result.degraded() &&
             json == readFile(dir + "/reference.json");
    if (!rep.ok)
        rep.error = "summary differs from the reference";
}

/**
 * The traced analyze repetition: the calls runAnalysis makes for this
 * workload's options, made here with a span around each layer.
 * Finalize runs as its own step (as runAnalysis's checkpoint flow
 * does) so the pre-finalize state can be sized; that encode is
 * excluded from the traced wall time.
 */
void
analyzeTraced(const Workload &w, const std::string &dir, RepResult &rep)
{
    const app::AnalysisRunOptions options = entryOptions(w, dir);
    const Meta meta = readMeta(dir);
    obs::MetricsRegistry registry;
    Layers &out = rep.layers;

    auto begin = Clock::now();
    TraceOpenOptions open_options;
    open_options.format = sniffTraceFormat(options.path);
    auto opened = openTraceSource(options.path, open_options);
    TimedSource source(opened->source());
    auto opened_at = Clock::now();

    std::uint64_t count = 0;
    TimeUs last = 0;
    if (Cbt2Reader *reader = opened->cbt2()) {
        count = reader->declaredCount();
        last = reader->maxTimestamp();
    } else {
        std::vector<IoRequest> batch;
        while (source.nextBatch(batch, 8192) > 0) {
            count += batch.size();
            last = batch.back().timestamp;
        }
        source.reset();
    }
    auto scanned_at = Clock::now();
    const double scan_decode_s = source.busySeconds();

    opened->reader().attachMetrics(registry);
    WorkloadSummaryOptions summary_options;
    summary_options.duration = last + 1;
    WorkloadSummary summary(summary_options);

    auto run_begin = Clock::now();
    if (options.threads) {
        ParallelOptions parallel;
        parallel.shards = *options.threads;
        parallel.batch_size = kBatchRecords;
        parallel.ingest_lanes = *options.ingest_lanes;
        parallel.metrics = &registry;
        parallel.finalize = false;
        summary.run(source, parallel);
    } else {
        PipelineOptions serial;
        serial.batch_records = kBatchRecords;
        serial.metrics = &registry;
        serial.finalize = false;
        summary.run(source, serial);
    }
    auto run_end = Clock::now();
    const double run_decode_s = source.busySeconds() - scan_decode_s;

    const BasicStats &stats = summary.basic.stats();
    const double state_bytes = static_cast<double>(
        encodeSnapshot(summary, {options.path, stats.requests(),
                                 stats.first_timestamp,
                                 stats.last_timestamp})
            .size());
    auto finalize_begin = Clock::now();
    for (ShardableAnalyzer *analyzer : summary.shardableAnalyzers())
        analyzer->finalize();
    auto finalize_end = Clock::now();

    double mrc_decode_s = 0.0;
    std::unique_ptr<CacheMrcAnalyzer> mrc;
    if (options.cache) {
        const double before = source.busySeconds();
        source.reset();
        mrc = std::make_unique<CacheMrcAnalyzer>(options.cache->fractions,
                                                 options.block_size);
        PipelineOptions pass;
        pass.batch_records = kBatchRecords;
        pass.metrics = &registry;
        runPipeline(source, {mrc.get()}, pass);
        summary.setCacheSim(mrc.get());
        mrc_decode_s = source.busySeconds() - before;
    }
    auto mrc_end = Clock::now();
    std::string json = summaryJson(summary);
    auto end = Clock::now();

    rep.completed = true;
    rep.records = count;
    rep.wall_s = seconds(begin, end) - seconds(run_end, finalize_begin);
    rep.ok = json == readFile(dir + "/reference.json");
    if (!rep.ok)
        rep.error = "traced summary differs from the reference";

    const double open_s = seconds(begin, opened_at);
    const double scan_self_s =
        seconds(opened_at, scanned_at) - scan_decode_s;
    const double run_s = seconds(run_begin, run_end);
    const double merge_s = registrySeconds(registry, "parallel.merge_ns");
    const double pipeline_self_s = run_s - run_decode_s - merge_s;
    const double finalize_s = seconds(finalize_begin, finalize_end);
    const double mrc_self_s = options.cache
                                  ? seconds(finalize_end, mrc_end) -
                                        mrc_decode_s
                                  : 0.0;
    const double json_s = seconds(mrc_end, end);
    const double decode_s = source.busySeconds();
    const double attributed = open_s + scan_self_s + decode_s +
                              pipeline_self_s + merge_s + finalize_s +
                              mrc_self_s + json_s;

    out["trace.open_s"] = open_s;
    out["trace.decode_s"] = decode_s;
    out["trace.extent_scan_s"] = scan_self_s;
    out["trace.passes"] = static_cast<double>(source.records()) /
                          static_cast<double>(meta.records);
    out["trace.bad_records"] =
        registryCount(registry, "ingest.bad_records");
    out["analysis.pipeline_self_s"] = pipeline_self_s;
    out["analysis.finalize_s"] = finalize_s;
    for (const char *name : kBundleAnalyzers)
        out[std::string("analysis.analyzer.") + name + ".busy_s"] =
            registrySeconds(registry,
                            std::string("analyzer.") + name + ".batch_ns");

    // Lanes overlap each other and the producer, so their times are
    // never summed into the wall: a lane lives for the run span minus
    // the merge, and only the slowest lane plus the merge is on the
    // critical path.
    double busiest = 0.0, records_max = 0.0, records_sum = 0.0;
    const std::size_t lanes = options.threads ? *options.threads : 0;
    for (std::size_t i = 0; i < kThreads; ++i) {
        std::string key = "parallel.shard." + std::to_string(i);
        std::string lane = "analysis.lane." + std::to_string(i);
        double idle = registrySeconds(registry, key + ".idle_ns");
        double busy = i < lanes ? run_s - merge_s - idle : 0.0;
        double recs = registryCount(registry, key + ".records");
        busiest = std::max(busiest, busy);
        records_max = std::max(records_max, recs);
        records_sum += recs;
        out[lane + ".busy_s"] = busy;
        out[lane + ".idle_s"] = idle;
        out[lane + ".queue_full_waits"] =
            registryCount(registry, key + ".queue_full_waits");
    }
    out["analysis.merge_s"] = merge_s;
    out["analysis.shard_skew"] =
        lanes ? records_max / (records_sum / static_cast<double>(lanes))
              : 1.0;
    out["analysis.critical_path_s"] = lanes ? busiest + merge_s : run_s;
    out["cache.mrc_self_s"] = mrc_self_s;
    out["snapshot.state_bytes"] = state_bytes;
    out["report.summary_json_s"] = json_s;
    out["report.summary_json_bytes"] = static_cast<double>(json.size());
    out["residual_s"] = rep.wall_s - attributed;
    out["traced_wall_s"] = rep.wall_s;
}

/**
 * One repetition of the serve workload: runServe drains the finished
 * CSV. The poll decorator is the only instrument, in both modes — it
 * is how a window close is seen from outside: the gap between the poll
 * that returned the first record past a window boundary and the next
 * poll.
 */
void
serveRep(const std::string &dir, bool traced, RepResult &rep)
{
    const Meta meta = readMeta(dir);
    const std::string path = tracePath(dir, "csv");
    const std::string out_dir = dir + "/serve-out";
    fs::remove_all(out_dir);
    fs::create_directories(out_dir);

    ServeOptions options;
    options.out_dir = out_dir;
    options.summary.duration = meta.last_timestamp + 1;
    options.source_id = path;
    options.batch_records = kBatchRecords;
    options.window_span = kWindowSpan;
    options.idle_exit_polls = 1;
    options.sleep = [](std::uint64_t) {};
    options.cumulative_partial = out_dir + "/cumulative.cbss";

    auto begin = Clock::now();
    TailingCsvSource tail(path);
    TimedSource source(tail);
    ServeResult result = runServe(source, tail, options);
    auto end = Clock::now();

    rep.wall_s = seconds(begin, end);
    rep.completed = true;
    rep.records = result.records;
    const std::string partial = readFile(options.cumulative_partial);
    const std::string reference = readFile(dir + "/reference.cbss");
    const auto diff =
        std::mismatch(partial.begin(), partial.end(), reference.begin(),
                      reference.end());
    rep.ok = !result.degraded && result.records == meta.records &&
             partial == reference;
    if (result.degraded)
        rep.error = result.degraded_reason;
    else if (result.records != meta.records)
        rep.error = "serve consumed " + std::to_string(result.records) +
                    " of " + std::to_string(meta.records) + " records";
    else if (!rep.ok)
        rep.error = "cumulative partial differs from the batch "
                    "reference from byte " +
                    std::to_string(diff.first - partial.begin());

    const auto &polls = source.polls();
    double batch_s = 0.0, close_s = 0.0;
    std::uint64_t window = 0;
    for (std::size_t k = 0; k + 1 < polls.size(); ++k) {
        const TimedSource::Poll &poll = polls[k];
        double gap = seconds(poll.end, polls[k + 1].begin);
        if (poll.records > 0 &&
            poll.last_timestamp >= (window + 1) * kWindowSpan) {
            window = poll.last_timestamp / kWindowSpan;
            rep.closes_ms.push_back(gap * 1e3);
            close_s += gap;
        } else {
            batch_s += gap;
        }
    }
    if (!traced)
        return;

    const double final_flush_s =
        polls.empty() ? 0.0 : seconds(polls.back().end, end);
    const double poll_s = source.busySeconds();
    double output_bytes = 0.0;
    for (const auto &entry : fs::directory_iterator(out_dir))
        output_bytes += static_cast<double>(entry.file_size());

    Layers &out = rep.layers;
    // Serve's parser runs inside its polls, so its decode time is
    // serve.poll_s; layers serve does not expose read 0.
    out["trace.passes"] = static_cast<double>(source.records()) /
                          static_cast<double>(meta.records);
    out["trace.bad_records"] = static_cast<double>(tail.badRecords());
    out["analysis.shard_skew"] = 1.0; // one serial consumer
    out["serve.poll_s"] = poll_s;
    out["serve.batch_s"] = batch_s;
    out["serve.window_close_s"] = close_s;
    out["serve.final_flush_s"] = final_flush_s;
    out["serve.windows"] = static_cast<double>(result.windows);
    out["serve.checkpoints"] = static_cast<double>(result.checkpoints);
    out["serve.output_bytes"] = output_bytes;
    out["snapshot.state_bytes"] =
        static_cast<double>(fs::file_size(options.cumulative_partial));
    out["residual_s"] =
        rep.wall_s - poll_s - batch_s - close_s - final_flush_s;
    out["traced_wall_s"] = rep.wall_s;
}

void
appendJsonString(std::string &out, const std::string &text)
{
    out += '"';
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    out += '"';
}

std::string
number(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
}

int
rep(const Workload &w, const std::string &dir, bool traced)
{
    RepResult result;
    try {
        if (w.kind == Kind::ServeCsv)
            serveRep(dir, traced, result);
        else if (traced)
            analyzeTraced(w, dir, result);
        else
            analyzeRep(w, dir, result);
    } catch (const std::exception &err) {
        result.ok = false;
        result.error = err.what();
    }
    std::string line = "{\"completed\": ";
    line += result.completed ? "true" : "false";
    line += ", \"ok\": ";
    line += result.ok ? "true" : "false";
    line += ", \"error\": ";
    appendJsonString(line, result.error);
    line += ", \"wall_s\": " + number(result.wall_s);
    line += ", \"records\": " + std::to_string(result.records);
    line += ", \"closes_ms\": [";
    for (std::size_t i = 0; i < result.closes_ms.size(); ++i)
        line += (i ? ", " : "") + number(result.closes_ms[i]);
    line += "], \"layers\": {";
    if (traced) {
        const std::vector<std::string> names = layerNames();
        for (const auto &[name, value] : result.layers)
            CBS_EXPECT(std::find(names.begin(), names.end(), name) !=
                           names.end(),
                       "unlisted layer metric " << name);
        for (std::size_t i = 0; i < names.size(); ++i) {
            auto it = result.layers.find(names[i]);
            line += i ? ", " : "";
            appendJsonString(line, names[i]);
            line += ": " + number(it == result.layers.end() ? 0.0
                                                            : it->second);
        }
    }
    line += "}}\n";
    std::fputs(line.c_str(), stdout);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: cbsbench setup <workload> <seed> <dir> [--smoke]\n"
                 "       cbsbench rep <workload> <dir> [--traced]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() >= 4 && args[0] == "setup")
            return setup(findWorkload(args[1]),
                         std::strtoull(args[2].c_str(), nullptr, 10),
                         args[3],
                         args.size() > 4 && args[4] == "--smoke");
        if (args.size() >= 3 && args[0] == "rep")
            return rep(findWorkload(args[1]), args[2],
                       args.size() > 3 && args[3] == "--traced");
    } catch (const std::exception &err) {
        std::fprintf(stderr, "cbsbench: %s\n", err.what());
        return 1;
    }
    return usage();
}
