/**
 * @file
 * The frozen predictor-training oracle: every case of
 * predictor_oracle.hh, trained from scratch, must reproduce its
 * checked-in digests exactly — the savePredictor bytes (units, radii,
 * weights, selection) and the seed trees behind the importance plots.
 * tests/data/predictor_digests.txt is never regenerated.
 */

#include <gtest/gtest.h>

#include "predictor_oracle.hh"

namespace wavedyn
{
namespace
{

constexpr std::size_t kCases = 3 * 3 * 2 + 1 + 2;

TEST(PredictorDigestOracle, EveryCaseMatchesTheFrozenTable)
{
    std::map<std::string, std::string> table = predictor_oracle::load();
    ASSERT_EQ(table.size(), kCases) << predictor_oracle::path();
    std::map<std::string, std::string> got = predictor_oracle::compute();
    ASSERT_EQ(got.size(), kCases);
    for (const auto &[name, digest] : got) {
        ASSERT_EQ(table.count(name), 1u) << name;
        EXPECT_EQ(digest, table[name]) << name;
    }
}

} // namespace
} // namespace wavedyn
