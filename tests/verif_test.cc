// Runs the verification harness (paper §6) as part of the test suite: every task
// must complete with zero divergence between the monitor and the reference model.

#include <gtest/gtest.h>

#include "src/verif/verif.h"

namespace vfm {
namespace {

void ExpectClean(const VerifResult& result) {
  EXPECT_EQ(result.mismatches, 0u) << result.task << ": " <<
      (result.examples.empty() ? "" : result.examples.front());
  EXPECT_GT(result.cases, 0u);
}

TEST(VerifTest, Decoder) { ExpectClean(Verifier().VerifyDecoder()); }
TEST(VerifTest, CsrRead) { ExpectClean(Verifier().VerifyCsrRead(10)); }
TEST(VerifTest, CsrWrite) { ExpectClean(Verifier().VerifyCsrWrite(60)); }
TEST(VerifTest, Mret) { ExpectClean(Verifier().VerifyMret()); }
TEST(VerifTest, Sret) { ExpectClean(Verifier().VerifySret()); }
TEST(VerifTest, Wfi) { ExpectClean(Verifier().VerifyWfi()); }
TEST(VerifTest, VirtualInterrupt) { ExpectClean(Verifier().VerifyVirtualInterrupt()); }
TEST(VerifTest, EndToEnd) { ExpectClean(Verifier().VerifyEndToEnd(20000)); }
TEST(VerifTest, SeedsAreHonoured) {
  // Each verifier draws its random states from its own stream: two built with one
  // seed produce the same states, whatever runs between their draws, and another
  // seed produces different ones. A failing case thus replays under a filter.
  Verifier first(7);
  Verifier second(7);
  Verifier other(8);
  bool differs = false;
  for (int i = 0; i < 8; ++i) {
    const RefState a = first.MakeRandomState().ref;
    const RefState b = second.MakeRandomState().ref;
    differs |= !(other.MakeRandomState().ref == a);
    EXPECT_TRUE(a == b) << "state " << i;
  }
  EXPECT_TRUE(differs);
}

TEST(VerifTest, PmpFaithfulExecution) {
  ExpectClean(Verifier().VerifyPmpFaithfulExecution(60, 32));
}

}  // namespace
}  // namespace vfm
