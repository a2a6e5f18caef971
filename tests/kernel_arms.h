// Both arms of the IFMA dispatch (src/bignum/ifma.h) on one machine. A
// suite runs on the lane arm, which needs a CPU with AVX-512 IFMA and
// skips elsewhere, and on the portable arm, which ScopedPortableArm forces
// on any CPU. Results must be the same on both, byte for byte.
//
// Value-parameterized suites derive their fixture from ArmTest and add a
// second instantiation under the prefix "PortableArm"; plain suites call
// SPFE_REQUIRE_LANE_ARM() in the lane-arm test and hold a
// ScopedPortableArm in a PortableArm twin.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "bignum/ifma.h"

#define SPFE_REQUIRE_LANE_ARM()                                                      \
  if (!::spfe::bignum::ifma::cpu_has_ifma())                                         \
  GTEST_SKIP() << "lane arm: cpu_has_ifma() is false (no AVX-512 IFMA), so only the " \
                  "portable arm (the PortableArm cases) runs here"

namespace spfe::arms {

// Instantiations whose prefix is "PortableArm" run the portable arm; every
// other one runs the lane arm.
template <class Param>
class ArmTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    const std::string suite =
        ::testing::UnitTest::GetInstance()->current_test_info()->test_suite_name();
    if (suite.rfind("PortableArm/", 0) == 0) {
      portable_.emplace();
      return;
    }
    SPFE_REQUIRE_LANE_ARM();
  }

 private:
  std::optional<bignum::ifma::ScopedPortableArm> portable_;
};

}  // namespace spfe::arms
