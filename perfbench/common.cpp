#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "util/rng.h"

namespace perfbench {

namespace {

/** Base of every seed a workload derives from --seed. */
constexpr uint64_t kSeedBase = 0xFA57'61B0'BE7CULL;

std::string
format_double(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
print_samples(const char *name, const std::vector<double> &values)
{
    std::string line = "# " + std::string(name) + " n=" +
                       std::to_string(values.size()) + " median " +
                       format_double(median(values)) + " [";
    for (size_t i = 0; i < values.size(); ++i)
        line += (i ? " " : "") + format_double(values[i]);
    std::printf("%s]\n", line.c_str());
}

std::optional<Workload>
make_workload(const std::string &name, uint64_t seed)
{
    using fastgl::util::derive_seed;
    Workload w;
    w.name = name;

    w.trainer.compute_threads = 2;
    w.trainer.gather_threads = 2;
    w.trainer.seed = derive_seed(kSeedBase, seed, 0);

    w.pipeline.num_gpus = 2; // FastGL preset is the default.
    w.pipeline.seed = derive_seed(kSeedBase, seed, 1);

    // Serving forwards are small batches: one compute thread serves
    // them faster and with less run-to-run spread than two.
    w.server.worker_threads = 2;
    w.server.compute_logits = true;
    w.server.compute_threads = 1;
    w.server.seed = derive_seed(kSeedBase, seed, 2);

    if (name == "products-inmem") {
        w.dataset = fastgl::graph::DatasetId::kProducts;
    } else if (name == "papers-ooc") {
        // Large-scale accounting: 2 modelled GPUs, a 20% sharded
        // feature cache and an NVMe tier holding 75% of the rows.
        w.dataset = fastgl::graph::DatasetId::kPapers100M;
        fastgl::store::TieredStoreOptions storage;
        storage.storage = fastgl::store::StorageKind::kNvme;
        storage.host_mem_fraction = 0.25;
        storage.prefetch_depth = 2;
        w.trainer.num_gpus = 2;
        w.trainer.feature_cache_ratio = 0.2;
        w.trainer.storage = storage;
        w.server.num_gpus = 2;
        w.server.storage = storage;
    } else {
        return std::nullopt;
    }
    return w;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    check(std::isfinite(value), "metric " + name + " is finite");
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "check FAILED: %s\n", what.c_str());
    }
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               format_double(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

void
Tracer::begin(const char *name)
{
    spans_.push_back({name, open_.empty() ? -1 : open_.back(),
                      Clock::now(), {}});
    open_.push_back(static_cast<int>(spans_.size() - 1));
}

void
Tracer::end()
{
    spans_[static_cast<size_t>(open_.back())].end = Clock::now();
    open_.pop_back();
}

namespace {

template <typename Span>
double
duration(const Span &s)
{
    return std::chrono::duration<double>(s.end - s.start).count();
}

} // namespace

double
Tracer::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += duration(s);
    return sum;
}

int64_t
Tracer::count(const std::string &name) const
{
    return std::count_if(spans_.begin(), spans_.end(),
                         [&](const Span &s) { return s.name == name; });
}

double
Tracer::children_of(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.parent >= 0 &&
            spans_[static_cast<size_t>(s.parent)].name == name)
            sum += duration(s);
    return sum;
}

std::string
Tracer::summary() const
{
    struct Row
    {
        int64_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Row> rows;
    for (const Span &s : spans_) {
        Row &row = rows[s.name];
        ++row.count;
        row.total += duration(s);
        row.self += duration(s);
        if (s.parent >= 0)
            rows[spans_[static_cast<size_t>(s.parent)].name].self -=
                duration(s);
    }
    std::string out;
    char line[160];
    for (const auto &[name, row] : rows) {
        std::snprintf(line, sizeof(line),
                      "span %-18s count %6lld total %10.3f ms self "
                      "%10.3f ms\n",
                      name.c_str(), static_cast<long long>(row.count),
                      1e3 * row.total, 1e3 * row.self);
        out += line;
    }
    return out;
}

} // namespace perfbench
