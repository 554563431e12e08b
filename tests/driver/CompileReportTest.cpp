//===----------------------------------------------------------------------===//
// The compile report: compileProgram's CompileOutput carries one entry per
// plan group, and the figures built on it (bench/, the examples) read
// nothing else. These tests pin what an entry means — the same thing in
// the fused and the unfused plan — and that the driver marks the heap's
// frontend/transform boundary exactly as a hand-staged run does.
//===----------------------------------------------------------------------===//

#include "backend/CodeGen.h"
#include "driver/Driver.h"
#include "frontend/Frontend.h"
#include "transforms/StandardPlan.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

std::vector<SourceInput> workload() {
  WorkloadProfile Profile = stdlibProfile(0.05);
  Profile.UnitsHint = 4;
  return generateWorkload(Profile);
}

struct ReportCase {
  bool Fuse;
  size_t Traversals; // pinned: Table 2's blocks, or one per phase
};

class CompileReport : public ::testing::TestWithParam<ReportCase> {};

TEST_P(CompileReport, EntriesFollowThePlan) {
  const ReportCase &C = GetParam();
  CompilerContext Comp;
  std::vector<std::string> Errors;
  // A fresh plan: its blocks' counters are this compile's own.
  PhasePlan Plan = makeStandardPlan(C.Fuse, Errors);
  ASSERT_TRUE(Errors.empty());
  CompileOutput Out = compileProgramWithPlan(Comp, workload(), Plan);
  ASSERT_FALSE(Comp.diags().hasErrors());

  // One entry per plan group, in order and by name; each is one traversal.
  const std::vector<PhaseGroup> &Groups = Plan.groups();
  ASSERT_EQ(Out.Groups.size(), Groups.size());
  EXPECT_EQ(Out.Groups.size(), C.Traversals);

  GroupReport Manual;
  for (size_t I = 0; I < Groups.size(); ++I) {
    const GroupReport &E = Out.Groups[I];
    const PhaseGroup &G = Groups[I];
    EXPECT_EQ(E.Name, G.Members.front()->name()) << "group " << I;
    EXPECT_GE(E.Sec, 0.0);
    if (G.isFused()) {
      EXPECT_EQ(E.NodesVisited, G.Block->nodesVisited()) << E.Name;
      EXPECT_EQ(E.HooksExecuted, G.Block->hooksExecuted()) << E.Name;
      EXPECT_EQ(E.SubtreesPruned, G.Block->subtreesPruned()) << E.Name;
      EXPECT_EQ(E.PrepareOnlyWalks, G.Block->prepareOnlyWalks()) << E.Name;
    }
    if (G.Members.front()->isMini()) {
      // Fused or not, a miniphase group reports its walk.
      EXPECT_GT(E.NodesVisited, 0u) << E.Name;
    } else {
      // A megaphase reports time and allocations only.
      EXPECT_EQ(E.NodesVisited, 0u) << E.Name;
      EXPECT_EQ(E.HooksExecuted, 0u) << E.Name;
      EXPECT_EQ(E.SubtreesPruned, 0u) << E.Name;
      EXPECT_EQ(E.PrepareOnlyWalks, 0u) << E.Name;
    }
    Manual.Sec += E.Sec;
    Manual.NodesVisited += E.NodesVisited;
    Manual.HooksExecuted += E.HooksExecuted;
    Manual.SubtreesPruned += E.SubtreesPruned;
    Manual.PrepareOnlyWalks += E.PrepareOnlyWalks;
    Manual.RealAllocs += E.RealAllocs;
  }

  GroupReport Sum = sumGroups(Out.Groups);
  EXPECT_TRUE(Sum.Name.empty());
  EXPECT_DOUBLE_EQ(Sum.Sec, Manual.Sec);
  EXPECT_EQ(Sum.NodesVisited, Manual.NodesVisited);
  EXPECT_EQ(Sum.HooksExecuted, Manual.HooksExecuted);
  EXPECT_EQ(Sum.SubtreesPruned, Manual.SubtreesPruned);
  EXPECT_EQ(Sum.PrepareOnlyWalks, Manual.PrepareOnlyWalks);
  EXPECT_EQ(Sum.RealAllocs, Manual.RealAllocs);
  // The pipeline is timed as a whole too; its groups fit inside.
  EXPECT_LE(Sum.Sec, Out.Timings.TransformSec);
}

INSTANTIATE_TEST_SUITE_P(StandardPlan, CompileReport,
                         ::testing::Values(ReportCase{true, 6},
                                           ReportCase{false, 28}),
                         [](const ::testing::TestParamInfo<ReportCase> &I) {
                           return std::string(I.param.Fuse ? "fused"
                                                           : "unfused");
                         });

// The driver marks the frontend/transform boundary, so its heap statistics
// equal a hand-staged run's that marks it after runFrontEnd. The young
// generation is small enough that frontend objects tenure before the
// boundary, which is what the mark attributes.
TEST(CompileReportHeap, DriverMarksTheFrontendBoundary) {
  constexpr uint64_t YoungGen = 64ull << 10;
  for (bool Fuse : {true, false}) {
    CompilerContext Driven;
    Driven.heap().setGeometry(YoungGen, 1);
    CompileOutput Out =
        compileProgram(Driven, workload(),
                       Fuse ? PipelineKind::StandardFused
                            : PipelineKind::StandardUnfused);
    ASSERT_FALSE(Driven.diags().hasErrors());
    HeapStats A = Driven.heap().stats();

    CompilerContext Staged;
    Staged.heap().setGeometry(YoungGen, 1);
    Staged.options().FuseMiniphases = Fuse;
    std::vector<std::string> Errors;
    PhasePlan Plan = makeStandardPlan(Fuse, Errors);
    ASSERT_TRUE(Errors.empty());
    std::vector<CompilationUnit> Units = runFrontEnd(Staged, workload());
    Staged.heap().markBoundary();
    TransformPipeline(Plan).run(Units, Staged);
    generateCode(Units, Staged);
    HeapStats B = Staged.heap().stats();

    EXPECT_GT(B.TenuredBeforeBoundaryBytes, 0u) << "fuse=" << Fuse;
    EXPECT_EQ(A.AllocatedBytes, B.AllocatedBytes) << "fuse=" << Fuse;
    EXPECT_EQ(A.AllocatedObjects, B.AllocatedObjects) << "fuse=" << Fuse;
    EXPECT_EQ(A.TenuredBytes, B.TenuredBytes) << "fuse=" << Fuse;
    EXPECT_EQ(A.TenuredObjects, B.TenuredObjects) << "fuse=" << Fuse;
    EXPECT_EQ(A.TenuredBeforeBoundaryBytes, B.TenuredBeforeBoundaryBytes)
        << "fuse=" << Fuse;
    EXPECT_EQ(A.TenuredBeforeBoundaryObjects, B.TenuredBeforeBoundaryObjects)
        << "fuse=" << Fuse;
    EXPECT_EQ(A.FreedBytes, B.FreedBytes) << "fuse=" << Fuse;
    EXPECT_EQ(A.FreedObjects, B.FreedObjects) << "fuse=" << Fuse;
    EXPECT_EQ(A.MinorGCs, B.MinorGCs) << "fuse=" << Fuse;
    EXPECT_EQ(A.LiveBytes, B.LiveBytes) << "fuse=" << Fuse;
    EXPECT_EQ(A.PeakLiveBytes, B.PeakLiveBytes) << "fuse=" << Fuse;
  }
}

} // namespace
