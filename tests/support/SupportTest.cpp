//===----------------------------------------------------------------------===//
// Support-layer tests: interning, arena, RNG determinism, diagnostics.
//===----------------------------------------------------------------------===//

#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/OStream.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/NameTable.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

TEST(Interner, IdentityAndOrdinals) {
  NameTable I;
  Name A = I.intern("hello");
  Name B = I.intern("hello");
  Name C = I.intern("world");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(A.text(), "hello");
  EXPECT_LT(A.ordinal(), C.ordinal());
  Name D = I.internSuffixed("tmp", 7);
  EXPECT_EQ(D.text(), "tmp$7");
  EXPECT_TRUE(Name().isEmpty());
}

TEST(ArenaTest, AlignmentAndGrowth) {
  Arena A;
  void *P1 = A.allocate(3, 1);
  void *P2 = A.allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P2) % 8, 0u);
  EXPECT_NE(P1, P2);
  // Force slab growth.
  void *Big = A.allocate(100000);
  EXPECT_NE(Big, nullptr);
  EXPECT_GE(A.bytesUsed(), 100011u);
}

TEST(RngTest, DeterministicAcrossRuns) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
  Rng C(43);
  EXPECT_NE(Rng(42).next(), C.next());
  Rng D(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = D.range(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(DiagnosticsTest, CollectsAndPrints) {
  DiagnosticEngine D;
  uint32_t F = D.addFile("a.scala");
  D.error({F, 3, 7}, "something broke");
  D.warning({F, 1, 1}, "be careful");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  StringOStream OS;
  D.printAll(OS);
  EXPECT_NE(OS.str().find("a.scala:3:7: error: something broke"),
            std::string::npos);
  EXPECT_NE(OS.str().find("warning: be careful"), std::string::npos);
}

TEST(DiagnosticsTest, PerFileCapSuppressesFloods) {
  DiagnosticEngine D;
  D.setMaxDiagnosticsPerFile(5);
  uint32_t A = D.addFile("a.scala");
  uint32_t B = D.addFile("b.scala");
  for (unsigned I = 1; I <= 20; ++I)
    D.error({A, I, 1}, "broken " + std::to_string(I));
  // Errors past the cap still count, but only cap + summary are stored.
  EXPECT_EQ(D.errorCount(), 20u);
  EXPECT_EQ(D.emittedCount(), 6u); // 5 + the "too many errors" summary
  EXPECT_EQ(D.suppressedCount(), 15u);
  EXPECT_NE(D.all().back().Message.find("too many errors, stopping"),
            std::string::npos);
  // The cap is per file: a second file reports normally.
  D.error({B, 1, 1}, "other file");
  EXPECT_EQ(D.emittedCount(), 7u);
  EXPECT_EQ(D.all().back().Message, "other file");
  // clear() resets counters so a recycled engine caps afresh.
  D.clear();
  EXPECT_EQ(D.emittedCount(), 0u);
  EXPECT_EQ(D.suppressedCount(), 0u);
  D.error({A, 1, 1}, "fresh");
  EXPECT_EQ(D.emittedCount(), 1u);
  // The configured cap itself survives clear() and reset().
  EXPECT_EQ(D.maxDiagnosticsPerFile(), 5u);
}

TEST(DiagnosticsTest, CapDisabledWithZero) {
  DiagnosticEngine D;
  D.setMaxDiagnosticsPerFile(0);
  uint32_t A = D.addFile("a.scala");
  for (unsigned I = 1; I <= 200; ++I)
    D.error({A, I, 1}, "e");
  EXPECT_EQ(D.emittedCount(), 200u);
  EXPECT_EQ(D.suppressedCount(), 0u);
}

TEST(OStreamTest, Formatting) {
  StringOStream OS;
  OS << "x=" << 42 << ", y=" << -3 << ", d=" << 1.5 << ", b=" << true;
  EXPECT_EQ(OS.str(), "x=42, y=-3, d=1.5, b=true");
}

TEST(StatsTest, CountersAddAndPrint) {
  StatsRegistry S;
  S.counter("frontend.namesInterned") = 7;
  S.add("frontend.namesInterned", 3);
  S.add("frontend.scopeProbes", 2);
  EXPECT_EQ(S.get("frontend.namesInterned"), 10u);
  EXPECT_EQ(S.get("missing"), 0u);

  StringOStream All;
  S.print(All);
  EXPECT_EQ(All.str(), "frontend.namesInterned = 10\n"
                       "frontend.scopeProbes = 2\n");
}

} // namespace
