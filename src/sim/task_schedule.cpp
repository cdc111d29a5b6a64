#include "sim/task_schedule.h"

#include <algorithm>
#include <fstream>

#include "util/json.h"
#include "util/logging.h"

namespace fastgl {
namespace sim {

int
TaskSchedule::add_resource(std::string name)
{
    resource_names_.push_back(std::move(name));
    return int(resource_names_.size()) - 1;
}

int
TaskSchedule::add_task(int resource, double duration,
                       std::vector<int> deps, std::string label)
{
    FASTGL_CHECK(resource >= 0 &&
                     resource < int(resource_names_.size()),
                 "unknown resource");
    FASTGL_CHECK(duration >= 0.0, "negative task duration");
    const int id = int(durations_.size());
    for (int dep : deps)
        FASTGL_CHECK(dep >= 0 && dep < id,
                     "dependency on a later/unknown task");
    task_resource_.push_back(resource);
    durations_.push_back(duration);
    dependencies_.push_back(std::move(deps));
    labels_.push_back(std::move(label));
    return id;
}

double
TaskSchedule::run()
{
    // Submission order is a valid topological order (deps must precede),
    // and per-resource FIFO equals submission order — so a single pass
    // suffices.
    timings_.assign(durations_.size(), TaskTiming{});
    std::vector<double> resource_free(resource_names_.size(), 0.0);
    double makespan = 0.0;
    for (size_t t = 0; t < durations_.size(); ++t) {
        double ready = resource_free[size_t(task_resource_[t])];
        for (int dep : dependencies_[t])
            ready = std::max(ready, timings_[size_t(dep)].finish);
        timings_[t].start = ready;
        timings_[t].finish = ready + durations_[t];
        resource_free[size_t(task_resource_[t])] = timings_[t].finish;
        makespan = std::max(makespan, timings_[t].finish);
    }
    ran_ = true;
    return makespan;
}

bool
TaskSchedule::write_chrome_trace(const std::string &path) const
{
    if (!ran_)
        return false;
    std::ofstream out(path);
    if (!out)
        return false;
    // Durations in microseconds, one "thread" per resource.
    util::JsonWriter w(util::JsonWriter::Layout::kCompact);
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (size_t t = 0; t < durations_.size(); ++t) {
        w.begin_object();
        w.key("name").string(labels_[t].empty() ? "task" : labels_[t]);
        w.key("ph").string("X");
        w.key("ts").fixed(timings_[t].start * 1e6, 3);
        w.key("dur").fixed((timings_[t].finish - timings_[t].start) * 1e6,
                           3);
        w.key("pid").integer(0);
        w.key("tid").integer(task_resource_[t]);
        w.end_object();
    }
    w.end_array();
    w.key("displayTimeUnit").string("ms");
    w.end_object();
    out << w.str() << '\n';
    return static_cast<bool>(out);
}

} // namespace sim
} // namespace fastgl
