#include "prof/profiler.h"

#include <algorithm>
#include <cstdio>

#include "util/fingerprint.h"
#include "util/json.h"

namespace fastgl {
namespace prof {

namespace {

using util::double_bits;
using util::fnv;

/** Percentile snapshot of one raw accumulator. */
StageSummary
summarize(std::string name, StageProfile &p)
{
    StageSummary s;
    s.name = std::move(name);
    s.items = p.items;
    s.mean_occupancy = p.mean_occupancy();
    s.busy_seconds = p.busy_seconds;
    s.shed = p.shed;
    s.dropped = p.dropped;
    const double ps[] = {50.0, 95.0, 99.0};
    if (p.queue_wait.count()) {
        s.wait_mean = p.queue_wait.mean();
        const std::vector<double> w = p.queue_wait.percentiles(ps);
        s.wait_p50 = w[0];
        s.wait_p95 = w[1];
        s.wait_p99 = w[2];
    }
    if (p.service.count()) {
        s.service_mean = p.service.mean();
        const std::vector<double> v = p.service.percentiles(ps);
        s.service_p50 = v[0];
        s.service_p95 = v[1];
        s.service_p99 = v[2];
    }
    return s;
}

uint64_t
fold_summary(uint64_t h, const StageSummary &s)
{
    h = fnv(h, static_cast<uint64_t>(s.items));
    h = fnv(h, double_bits(s.mean_occupancy));
    h = fnv(h, double_bits(s.busy_seconds));
    h = fnv(h, double_bits(s.wait_mean));
    h = fnv(h, double_bits(s.wait_p50));
    h = fnv(h, double_bits(s.wait_p95));
    h = fnv(h, double_bits(s.wait_p99));
    h = fnv(h, double_bits(s.service_mean));
    h = fnv(h, double_bits(s.service_p50));
    h = fnv(h, double_bits(s.service_p95));
    h = fnv(h, double_bits(s.service_p99));
    h = fnv(h, static_cast<uint64_t>(s.shed));
    h = fnv(h, static_cast<uint64_t>(s.dropped));
    return h;
}

void
write_summary_json(util::JsonWriter &w, const StageSummary &s)
{
    w.begin_object();
    w.key("name").string(s.name);
    w.key("items").integer(s.items);
    w.key("mean_occupancy").general(s.mean_occupancy);
    w.key("busy_seconds").general(s.busy_seconds);
    w.key("wait").begin_object();
    w.key("mean").general(s.wait_mean);
    w.key("p50").general(s.wait_p50);
    w.key("p95").general(s.wait_p95);
    w.key("p99").general(s.wait_p99);
    w.end_object();
    w.key("service").begin_object();
    w.key("mean").general(s.service_mean);
    w.key("p50").general(s.service_p50);
    w.key("p95").general(s.service_p95);
    w.key("p99").general(s.service_p99);
    w.end_object();
    w.key("shed").integer(s.shed);
    w.key("dropped").integer(s.dropped);
    w.end_object();
}

void
append_summary_row(std::string &out, const StageSummary &s)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  %-10s %8lld %7.2f %12s %12s %12s %12s %6lld %6lld\n",
                  s.name.c_str(), static_cast<long long>(s.items),
                  s.mean_occupancy,
                  util::human_seconds(s.busy_seconds).c_str(),
                  util::human_seconds(s.wait_p50).c_str(),
                  util::human_seconds(s.wait_p99).c_str(),
                  util::human_seconds(s.service_p99).c_str(),
                  static_cast<long long>(s.shed),
                  static_cast<long long>(s.dropped));
    out += buf;
}

} // namespace

const char *
stage_name(Stage stage)
{
    switch (stage) {
      case Stage::kFeeder:
        return "feeder";
      case Stage::kSampler:
        return "sampler";
      case Stage::kGather:
        return "gather";
      case Stage::kCompute:
        return "compute";
      case Stage::kSequencer:
        return "sequencer";
      case Stage::kStorage:
        return "storage";
    }
    return "?";
}

void
Profiler::reset()
{
    for (StageProfile &s : stages_)
        s = StageProfile{};
    tiers_.clear();
    tier_names_.clear();
    devices_.clear();
    device_busy_seconds_ = 0.0;
    makespan_ = 0.0;
}

void
Profiler::record(Stage stage, double queue_wait, double service,
                 int64_t occupancy)
{
    if (!enabled_)
        return;
    StageProfile &s = stages_[static_cast<size_t>(stage)];
    ++s.items;
    s.occupancy_sum += occupancy;
    s.queue_wait.add(queue_wait);
    s.service.add(service);
    s.busy_seconds += service;
}

void
Profiler::record_batch(const BatchPhases &batch, double gather_wait,
                       double compute_wait)
{
    record(Stage::kSampler, 0.0, batch.sample + batch.id_map,
           batch.items);
    record(Stage::kGather, gather_wait, batch.io, batch.rows);
    record(Stage::kCompute, compute_wait, batch.compute, batch.items);
    if (batch.storage_tier)
        record(Stage::kStorage, 0.0, batch.storage, batch.misses);
}

void
StageReplay::add(const BatchPhases &batch)
{
    const double sample_end =
        sampler_free_ + (batch.sample + batch.id_map);
    sampler_free_ = sample_end;
    const double gather_start = std::max(sample_end, gather_free_);
    const double gather_end = gather_start + batch.io;
    gather_free_ = gather_end;
    const double compute_start = std::max(gather_end, compute_free_);
    const double free_before = compute_free_;
    compute_free_ = compute_start + batch.compute;
    profiler_.record_batch(batch, gather_start - sample_end,
                           compute_start - gather_end);
    profiler_.record_device(device_, compute_start - free_before,
                            batch.compute, compute_free_);
}

void
Profiler::count_shed(Stage stage)
{
    if (!enabled_)
        return;
    ++stages_[static_cast<size_t>(stage)].shed;
}

void
Profiler::count_drop(Stage stage)
{
    if (!enabled_)
        return;
    ++stages_[static_cast<size_t>(stage)].dropped;
}

void
Profiler::record_tier(size_t tier, double queue_wait, double service,
                      int64_t occupancy)
{
    if (!enabled_)
        return;
    if (tier >= tiers_.size())
        tiers_.resize(tier + 1);
    StageProfile &s = tiers_[tier];
    ++s.items;
    s.occupancy_sum += occupancy;
    s.queue_wait.add(queue_wait);
    s.service.add(service);
    s.busy_seconds += service;
}

void
Profiler::record_device(int device, double idle_gap, double service,
                        double free_at)
{
    if (!enabled_)
        return;
    const size_t d = static_cast<size_t>(device);
    if (d >= devices_.size())
        devices_.resize(d + 1);
    DeviceProfile &dev = devices_[d];
    ++dev.batches;
    dev.busy_seconds += service;
    dev.idle_seconds += idle_gap;
    dev.last_free = free_at;
    device_busy_seconds_ += service;
}

void
Profiler::set_tier_name(size_t tier, std::string name)
{
    if (!enabled_)
        return;
    if (tier >= tier_names_.size())
        tier_names_.resize(tier + 1);
    tier_names_[tier] = std::move(name);
}

ProfileReport
Profiler::report()
{
    ProfileReport r;
    r.enabled = enabled_;
    if (!enabled_)
        return r;
    r.makespan = makespan_;
    r.stages.reserve(kNumStages);
    for (size_t i = 0; i < kNumStages; ++i)
        r.stages.push_back(summarize(
            stage_name(static_cast<Stage>(i)), stages_[i]));
    for (size_t t = 0; t < tiers_.size(); ++t) {
        std::string name = t < tier_names_.size() && !tier_names_[t].empty()
                               ? tier_names_[t]
                               : "tier-" + std::to_string(t);
        r.tiers.push_back(summarize(std::move(name), tiers_[t]));
    }
    r.devices = devices_;
    r.device_busy_seconds = device_busy_seconds_;
    return r;
}

uint64_t
ProfileReport::fingerprint() const
{
    uint64_t h = util::kFnvOffset;
    h = fnv(h, enabled ? 1 : 0);
    h = fnv(h, double_bits(makespan));
    h = fnv(h, stages.size());
    for (const StageSummary &s : stages)
        h = fold_summary(h, s);
    h = fnv(h, tiers.size());
    for (const StageSummary &s : tiers)
        h = fold_summary(h, s);
    h = fnv(h, devices.size());
    for (const DeviceProfile &d : devices) {
        h = fnv(h, static_cast<uint64_t>(d.batches));
        h = fnv(h, double_bits(d.busy_seconds));
        h = fnv(h, double_bits(d.idle_seconds));
        h = fnv(h, double_bits(d.last_free));
    }
    h = fnv(h, double_bits(device_busy_seconds));
    return h;
}

std::string
ProfileReport::to_json() const
{
    util::JsonWriter w(util::JsonWriter::Layout::kCompact);
    w.begin_object();
    w.key("enabled").boolean(enabled);
    w.key("makespan").general(makespan);
    w.key("stages").begin_array();
    for (const StageSummary &s : stages)
        write_summary_json(w, s);
    w.end_array();
    w.key("tiers").begin_array();
    for (const StageSummary &s : tiers)
        write_summary_json(w, s);
    w.end_array();
    w.key("devices").begin_array();
    for (const DeviceProfile &d : devices) {
        w.begin_object();
        w.key("batches").integer(d.batches);
        w.key("busy").general(d.busy_seconds);
        w.key("idle").general(d.idle_seconds);
        w.key("last_free").general(d.last_free);
        w.end_object();
    }
    w.end_array();
    w.key("device_busy_seconds").general(device_busy_seconds);
    w.key("fingerprint").hash(fingerprint(), "");
    w.end_object();
    return w.str();
}

std::string
ProfileReport::to_table() const
{
    std::string out;
    if (!enabled) {
        out = "  (profiling disabled)\n";
        return out;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  makespan %s\n",
                  util::human_seconds(makespan).c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  %-10s %8s %7s %12s %12s %12s %12s %6s %6s\n",
                  "stage", "items", "occ", "busy", "wait-p50",
                  "wait-p99", "svc-p99", "shed", "drop");
    out += buf;
    for (const StageSummary &s : stages) {
        if (s.items == 0 && s.shed == 0 && s.dropped == 0)
            continue; // stage not exercised by this run
        append_summary_row(out, s);
    }
    for (const StageSummary &s : tiers)
        append_summary_row(out, s);
    for (size_t d = 0; d < devices.size(); ++d) {
        std::snprintf(
            buf, sizeof(buf),
            "  device-%-3zu %8lld %7s %12s %12s\n", d,
            static_cast<long long>(devices[d].batches), "",
            util::human_seconds(devices[d].busy_seconds).c_str(),
            util::human_seconds(devices[d].idle_seconds).c_str());
        out += buf;
    }
    return out;
}

} // namespace prof
} // namespace fastgl
