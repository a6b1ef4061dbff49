// Algorithm NORMALIZE (Section 4.3): divides the cost of each fresh
// subexpression by the number of sharings seen so far that *contain* it
// (Definition 4.2), betting that frequently-contained subexpressions will
// recur. Chooses the plan with the smallest normalized cost. Can be
// arbitrarily worse than optimal by taking an unrewarded risk at the end
// of a sequence (Example 4.2).

#ifndef DSM_ONLINE_NORMALIZE_H_
#define DSM_ONLINE_NORMALIZE_H_

#include <unordered_map>

#include "online/planner.h"

namespace dsm {

class NormalizePlanner : public OnlinePlanner {
 public:
  explicit NormalizePlanner(PlannerContext context)
      : OnlinePlanner(context) {}

  const char* name() const override { return "Normalize"; }

  // Number of sharings seen so far (incl. the current one) containing the
  // subexpression over `tables`.
  int OccurrenceCount(TableSet tables) const;

 protected:
  double Score(const Sharing& sharing, const PlanSpace& space,
               const GlobalPlan::SpaceEvaluation& eval, size_t k) override;
  void OnSharingArrived(const Sharing& sharing) override;

 private:
  std::unordered_map<TableSet, int, TableSetHash> counts_;
};

}  // namespace dsm

#endif  // DSM_ONLINE_NORMALIZE_H_
