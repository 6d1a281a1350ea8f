#include "algo/seed_selector.h"

namespace holim {

SeedSelection SelectionMeter::Finish(SeedSelection selection) const {
  selection.elapsed_seconds = timer_.ElapsedSeconds();
  selection.overhead_bytes = memory_.OverheadBytes();
  return selection;
}

void MarkDegraded(const Deadline& deadline, SeedSelection* selection) {
  selection->degraded = true;
  selection->stop_status = deadline.status();
}

bool DeadlineExpired(Deadline* deadline, SeedSelection* selection) {
  if (deadline == nullptr || deadline->Check().ok()) return false;
  MarkDegraded(*deadline, selection);
  return true;
}

}  // namespace holim
