#include "compi/report.h"

#include <gtest/gtest.h>

#include <sstream>

#include "compi/driver.h"

namespace compi {
namespace {

TEST(TablePrinter, FormatsAlignedTable) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("| alpha "), std::string::npos);
  EXPECT_NE(out.find("|-"), std::string::npos);
  // Every line has the same length (alignment).
  std::istringstream lines(out);
  std::string line, first;
  std::getline(lines, first);
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.size(), first.size());
  }
}

TEST(TablePrinter, ShortRowsPadded) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"x"});
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("| x "), std::string::npos);
}

TEST(TablePrinter, NumFormatting) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(3.0, 0), "3");
}

TEST(TablePrinter, PctFormatting) {
  EXPECT_EQ(TablePrinter::pct(0.847), "84.7%");
  EXPECT_EQ(TablePrinter::pct(1.0, 0), "100%");
}

TEST(TablePrinter, BytesFormatting) {
  EXPECT_EQ(TablePrinter::bytes(512), "512B");
  EXPECT_EQ(TablePrinter::bytes(6554), "6.4K");
  EXPECT_EQ(TablePrinter::bytes(104857600), "100.0M");
  EXPECT_EQ(TablePrinter::bytes(2ull << 30), "2.0G");
}

TEST(PhaseBreakdown, WorkerSharesDivideByWorkersTimesWall) {
  // Four workers for one wall-clock second: their launch phases overlap and
  // sum to 3.72 s, which the report once divided by the 1 s wall clock
  // alone (execute 372%).
  CampaignResult result;
  result.workers_used = 4;
  result.total_seconds = 1.0;
  for (int i = 0; i < 4; ++i) {
    IterationRecord r;
    r.iteration = i;
    r.worker = i;
    r.exec_seconds = 0.93;
    r.solve_seconds = 0.05;
    result.iterations.push_back(r);
  }
  result.total_exec_seconds = 4 * 0.93;
  result.total_solve_seconds = 4 * 0.05;

  const PhaseBreakdown b = compute_phase_breakdown(result);
  ASSERT_EQ(b.phases.size(), 3u);
  double sum = 0.0;
  for (const PhaseStats& p : b.phases) {
    EXPECT_GE(p.share, 0.0) << p.name;
    EXPECT_LE(p.share, 1.0) << p.name;
    sum += p.share;
  }
  EXPECT_LE(sum, 1.0 + 1e-9);
  EXPECT_NEAR(b.phases[0].share, 0.93, 1e-9);  // execute
  EXPECT_NEAR(b.phases[1].share, 0.05, 1e-9);  // solve
  EXPECT_NEAR(b.phases[2].share, 0.02, 1e-9);  // overhead: the remainder
  EXPECT_NEAR(b.phases[2].total_seconds, 0.08, 1e-9);
}

}  // namespace
}  // namespace compi
