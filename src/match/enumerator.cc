#include "match/enumerator.h"

namespace cfl {

Enumerator::Enumerator(const Graph& data, const Cpi& cpi,
                       const std::vector<MatchStep>& steps,
                       EnumeratorState& state, Deadline& deadline)
    : data_(data),
      cpi_(cpi),
      steps_(steps),
      state_(state),
      deadline_(deadline),
      prefetch_(kernels::PrefetchEnabled() && cpi.PrefetchWorthwhile()),
      cursor_(steps.size(), 0),
      plans_(steps.size()) {
  CFL_STATS_ONLY(hub_prefix_.resize(steps.size());
                 for (size_t d = 0; d < steps.size(); ++d) {
                   hub_prefix_[d].assign(steps[d].backward.size() + 1, 0);
                 })
}

void Enumerator::Arm(uint32_t root_begin, uint32_t root_end) {
  CFL_DCHECK(!paused_) << " Enumerator::Arm while paused; Abort first";
  exhausted_ = false;
  depth_ = 0;
  if (steps_.empty()) return;
  cursor_[0] = root_begin;
  root_end_ = root_end;
  RebuildPlan(0);
  CFL_STATS_ONLY(RebuildHubPrefix(0);)
}

void Enumerator::Abort() {
  if (paused_) {
    for (size_t d = 0; d <= depth_; ++d) Unbind(d);
    paused_ = false;
  }
  exhausted_ = true;
}

}  // namespace cfl
