#include "kibamrm/engine/transient_backend.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "kibamrm/common/error.hpp"
#include "kibamrm/engine/adaptive_backend.hpp"
#include "kibamrm/engine/dense_expm_backend.hpp"
#include "kibamrm/engine/krylov_backend.hpp"
#include "kibamrm/engine/ooc_backend.hpp"
#include "kibamrm/engine/parallel_backend.hpp"
#include "kibamrm/engine/sharded_backend.hpp"
#include "kibamrm/linalg/kernels.hpp"
#include "kibamrm/linalg/shard_plan.hpp"
#include "kibamrm/linalg/vector_ops.hpp"

namespace kibamrm::engine {

namespace {

std::map<std::string, BackendFactory, std::less<>>& registry() {
  static std::map<std::string, BackendFactory, std::less<>> backends = {
      {"uniformization",
       [](BackendOptions options) -> std::unique_ptr<TransientBackend> {
         options.threads = 1;
         return std::make_unique<ParallelBackend>(options, "uniformization");
       }},
      {"adaptive",
       [](const BackendOptions& options) -> std::unique_ptr<TransientBackend> {
         return std::make_unique<AdaptiveBackend>(options);
       }},
      {"dense",
       [](const BackendOptions& options) -> std::unique_ptr<TransientBackend> {
         return std::make_unique<DenseExpmBackend>(options);
       }},
      {"parallel",
       [](const BackendOptions& options) -> std::unique_ptr<TransientBackend> {
         return std::make_unique<ParallelBackend>(options, "parallel");
       }},
      {"krylov",
       [](const BackendOptions& options) -> std::unique_ptr<TransientBackend> {
         return std::make_unique<KrylovBackend>(options);
       }},
      {"ooc",
       [](const BackendOptions& options) -> std::unique_ptr<TransientBackend> {
         return std::make_unique<OutOfCoreBackend>(options);
       }},
      {"sharded",
       [](const BackendOptions& options) -> std::unique_ptr<TransientBackend> {
         return std::make_unique<ShardedBackend>(options);
       }},
  };
  return backends;
}

}  // namespace

GatherShardPlan plan_gather_shards(const linalg::CsrMatrix& matrix,
                                   std::size_t lanes) {
  GatherShardPlan plan;
  plan.use_pool =
      lanes > 1 && matrix.nonzeros() + matrix.rows() >= 16384;
  plan.ranges = plan.use_pool
                    ? matrix.balanced_row_ranges(4 * lanes)
                    : std::vector<std::size_t>{0, matrix.rows()};
  return plan;
}

GatherShardPlan plan_gather_shards(std::span<const std::uint32_t> row_counts,
                                   std::uint64_t nonzeros,
                                   std::size_t row_begin, std::size_t row_end,
                                   std::size_t lanes) {
  GatherShardPlan plan;
  plan.use_pool = lanes > 1 && nonzeros + (row_end - row_begin) >= 16384;
  plan.ranges =
      plan.use_pool
          ? linalg::balanced_count_ranges(row_counts, row_begin, row_end,
                                          4 * lanes)
          : std::vector<std::size_t>{row_begin, row_end};
  return plan;
}

markov::TransientOptions transient_options(const BackendOptions& options) {
  return {.epsilon = options.epsilon,
          .uniformization_rate = options.uniformization_rate,
          .renormalize = options.renormalize,
          .collect_results = options.collect_distributions,
          .fused_kernels = options.fused_kernels,
          .steady_state_detection = options.steady_state_detection};
}

std::unique_ptr<TransientBackend> make_backend(std::string_view name,
                                               const BackendOptions& options) {
  // The kernel tier is process-global state (see linalg/kernels.hpp);
  // applying it here covers every construction path, including the
  // per-lane backends of ScenarioBatch.  "auto" is a no-op.
  linalg::kernels::apply_dispatch(options.kernel_dispatch);
  const auto it = registry().find(name);
  if (it == registry().end()) {
    std::ostringstream message;
    message << "unknown transient engine '" << name << "'; known engines:";
    for (const std::string& known : backend_names()) {
      message << ' ' << known;
    }
    throw InvalidArgument(message.str());
  }
  return it->second(options);
}

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const auto& [name, factory] : registry()) {
    (void)factory;
    names.push_back(name);
  }
  return names;
}

bool is_backend_name(std::string_view name) {
  return registry().find(name) != registry().end();
}

void register_backend(std::string name, BackendFactory factory) {
  KIBAMRM_REQUIRE(!name.empty(), "backend name must be non-empty");
  KIBAMRM_REQUIRE(static_cast<bool>(factory),
                  "backend factory must be callable");
  registry()[std::move(name)] = std::move(factory);
}

}  // namespace kibamrm::engine
