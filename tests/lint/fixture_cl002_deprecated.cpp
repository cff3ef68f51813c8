// lint-fixture-as: src/protocols/fixture_probe.cpp
// CL002: removed names must not reappear, under any spelling (declaration,
// call, or qualified mention).
#include "src/board/probe_oracle.hpp"

namespace colscore {

void fixture_deprecated_calls(ProbeOracle& oracle, ProtocolEnv& env,
                              std::span<const ObjectId> slate,
                              std::span<std::uint8_t> out) {
  oracle.probe_many(0, slate, out);    // VIOLATION
  env.own_probe_many(1, slate, out);   // VIOLATION
  BitVector bits(slate.size());
  env.own_probe_bits(1, slate, bits);  // the sanctioned form: fine
}

class FixtureTruth : public TruthSource {};  // VIOLATION

void fixture_unpacked_gather(ProbeOracle& oracle, std::span<const ObjectId> slate,
                             BitRow out) {
  oracle.gather_unpacked(0, slate, out);  // VIOLATION
  oracle.probe_gather(0, slate, out);     // the sanctioned form: fine
}

void fixture_csv_shims(CsvWriter& writer, const SuiteRun& run) {
  const auto columns = suite_csv_columns();  // VIOLATION
  colscore::suite_csv_row(writer, run);      // VIOLATION
  writer.row(suite_row_cells(run));          // the sanctioned form: fine
}

}  // namespace colscore
