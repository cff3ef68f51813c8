// lint-fixture-as: src/protocols/work_share.cpp
// CL001: work_share owns the vt_ group; touching sel_/zr_ members from here
// aliases live nested-frame state.
#include "src/common/workspace.hpp"

namespace colscore {

void fixture_foreign_group() {
  // colscore-lint: allow(CL012) fixture: CL001 exercises group aliasing, not execution
  RunWorkspace& ws = RunWorkspace::current();
  ws.vt_offsets.clear();     // own group: fine
  ws.sel_diff.clear();       // VIOLATION: sel_ belongs to select.cpp
  ws.zr_diff.clear();        // VIOLATION: zr_ belongs to zero_radius.cpp
  // colscore-lint: allow(CL001) fixture: documented cross-group handoff
  ws.pf_coords.clear();      // suppressed
}

}  // namespace colscore
