#include "match/gather_engine.h"

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace fastgl {
namespace match {

namespace {

/**
 * 128-bit float vector — the same explicit-vector idiom as
 * compute/kernel_impl.inc. Loads/stores go through __builtin_memcpy so
 * alignment never matters and the copy is exactly the scalar bytes.
 */
typedef float vf4 __attribute__((vector_size(16)));

/**
 * Copy one feature row in column chunks: 4 vectors (16 floats) per
 * main-loop step, then a vector tail, then scalars. A copy moves the
 * identical bytes the per-element loop would, so the fast path is
 * bit-identical to FeatureStore::gather_row by construction.
 */
inline void
copy_row_simd(const float *src, float *dst, int64_t dim)
{
    int64_t d = 0;
    for (; d + 16 <= dim; d += 16) {
        vf4 a, b, c, e;
        __builtin_memcpy(&a, src + d, sizeof(vf4));
        __builtin_memcpy(&b, src + d + 4, sizeof(vf4));
        __builtin_memcpy(&c, src + d + 8, sizeof(vf4));
        __builtin_memcpy(&e, src + d + 12, sizeof(vf4));
        __builtin_memcpy(dst + d, &a, sizeof(vf4));
        __builtin_memcpy(dst + d + 4, &b, sizeof(vf4));
        __builtin_memcpy(dst + d + 8, &c, sizeof(vf4));
        __builtin_memcpy(dst + d + 12, &e, sizeof(vf4));
    }
    for (; d + 4 <= dim; d += 4) {
        vf4 v;
        __builtin_memcpy(&v, src + d, sizeof(vf4));
        __builtin_memcpy(dst + d, &v, sizeof(vf4));
    }
    for (; d < dim; ++d)
        dst[d] = src[d];
}

} // namespace

/**
 * Shared arena free list behind an engine's panels. Held by shared_ptr
 * from the engine AND from every outstanding lease, so returning a
 * panel after the engine died still has a pool to return to.
 */
struct GatherEngine::PanelPool
{
    std::mutex mu;
    std::vector<std::unique_ptr<util::ArenaAllocator>> free;
};

/**
 * The lease a live panel holds: the arena its bytes live in plus the
 * pool to return it to. Destruction may happen on any thread (panels
 * travel through pipeline queues); the arena is reset and pushed back
 * under the pool mutex.
 */
struct FeaturePanel::Lease
{
    std::unique_ptr<util::ArenaAllocator> arena;
    std::shared_ptr<GatherEngine::PanelPool> pool;

    Lease(std::unique_ptr<util::ArenaAllocator> a,
          std::shared_ptr<GatherEngine::PanelPool> p)
        : arena(std::move(a)), pool(std::move(p))
    {}

    ~Lease()
    {
        arena->reset();
        std::lock_guard<std::mutex> lock(pool->mu);
        pool->free.push_back(std::move(arena));
    }
};

void
FeaturePanel::release()
{
    data_ = nullptr;
    rows_ = 0;
    dim_ = 0;
    lease_.reset();
}

GatherEngine::GatherEngine() : panels_(std::make_shared<PanelPool>()) {}

GatherEngine::GatherEngine(int threads)
    : panels_(std::make_shared<PanelPool>())
{
    FASTGL_CHECK(threads >= 0, "negative gather thread count");
    if (threads != 1) {
        owned_ = std::make_unique<util::ThreadPool>(
            static_cast<size_t>(threads));
        pool_ = owned_.get();
    }
}

GatherEngine::GatherEngine(util::ThreadPool *pool)
    : pool_(pool), panels_(std::make_shared<PanelPool>())
{}

GatherEngine::~GatherEngine() = default;

int
GatherEngine::threads() const
{
    return pool_ ? static_cast<int>(pool_->size()) : 1;
}

FeaturePanel
GatherEngine::acquire_panel(int64_t rows, int64_t dim)
{
    const size_t bytes =
        static_cast<size_t>(rows) * static_cast<size_t>(dim) *
        sizeof(float);
    std::unique_ptr<util::ArenaAllocator> arena;
    {
        std::lock_guard<std::mutex> lock(panels_->mu);
        if (!panels_->free.empty()) {
            arena = std::move(panels_->free.back());
            panels_->free.pop_back();
        }
    }
    if (!arena)
        arena = std::make_unique<util::ArenaAllocator>(
            bytes < size_t(1) << 16 ? size_t(1) << 16 : bytes);
    // Cache-line aligned so shard boundaries rarely split a line and
    // the vector copies hit aligned stores in practice.
    auto *data = static_cast<float *>(arena->allocate(bytes, 64));
    FeaturePanel panel;
    panel.data_ = data;
    panel.rows_ = rows;
    panel.dim_ = dim;
    panel.lease_ =
        std::make_shared<FeaturePanel::Lease>(std::move(arena), panels_);
    return panel;
}

FeaturePanel
GatherEngine::gather(const graph::FeatureStore &store,
                     std::span<const graph::NodeId> nodes)
{
    return gather_impl(store, nodes, nullptr).panel;
}

GatherEngine::CachedGather
GatherEngine::gather_cached(const graph::FeatureStore &store,
                            std::span<const graph::NodeId> nodes,
                            const StaticFeatureCache &cache)
{
    return gather_impl(store, nodes, &cache);
}

GatherEngine::CachedGather
GatherEngine::gather_impl(const graph::FeatureStore &store,
                          std::span<const graph::NodeId> nodes,
                          const StaticFeatureCache *cache)
{
    const util::WallTimer timer;

    // Hoisted structural pass: one bounds sweep here buys unvalidated
    // row access in the sharded inner loops below.
    store.validate_nodes(nodes);

    const int64_t rows = static_cast<int64_t>(nodes.size());
    const int64_t dim = store.dim();
    CachedGather out;
    out.panel = acquire_panel(rows, dim);

    float *dst = out.panel.data();
    const graph::NodeId *ids = nodes.data();
    // Exact at any thread width: shards tally locally and publish once;
    // integer addition is associative, so the totals cannot depend on
    // the shard layout.
    std::atomic<int64_t> hits{0};

    auto run_shard = [&](size_t begin, size_t end) {
        int64_t local_hits = 0;
        if (store.materialized()) {
            for (size_t i = begin; i < end; ++i)
                copy_row_simd(store.row_ptr_unvalidated(ids[i]),
                              dst + static_cast<int64_t>(i) * dim, dim);
        } else {
            for (size_t i = begin; i < end; ++i)
                store.gather_row_unvalidated(
                    ids[i], dst + static_cast<int64_t>(i) * dim);
        }
        if (cache) {
            // Fused accounting: the IDs are already hot in cache from
            // the gather loop; count residency in the same pass instead
            // of a separate lookup_batch sweep.
            for (size_t i = begin; i < end; ++i)
                local_hits += cache->contains(ids[i]) ? 1 : 0;
            hits.fetch_add(local_hits, std::memory_order_relaxed);
            cache->record(local_hits,
                          static_cast<int64_t>(end - begin) - local_hits);
        }
    };

    if (pool_ && rows > 0)
        pool_->parallel_for(static_cast<size_t>(rows), run_shard);
    else
        run_shard(0, static_cast<size_t>(rows));

    out.hits = hits.load(std::memory_order_relaxed);
    out.misses = rows - out.hits;

    stats_.seconds += timer.elapsed_seconds();
    stats_.rows += rows;
    stats_.bytes += out.panel.bytes();
    stats_.calls += 1;
    if (cache) {
        stats_.cache_hits += out.hits;
        stats_.cache_misses += out.misses;
    }
    return out;
}

} // namespace match
} // namespace fastgl
