/**
 * @file
 * Unit tests for src/model/: parameter counts, FLOP formulas and the
 * model zoo against the sizes the paper (and Megatron-LM) reports.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "model/model_config.h"
#include "model/zoo.h"

namespace vtrain {
namespace {

TEST(ModelConfig, Gpt3ParameterCount)
{
    const ModelConfig m = zoo::gpt3_175b();
    EXPECT_NEAR(m.numParameters() / 1e9, 175.0, 3.0);
}

TEST(ModelConfig, MtNlgParameterCount)
{
    const ModelConfig m = zoo::mtNlg530b();
    // Megatron-LM reports 529.6B for (h=20480, L=105).
    EXPECT_NEAR(m.numParameters() / 1e9, 529.6, 2.0);
}

struct ZooCase {
    ModelConfig model;
    double expected_billion;
};

class ZooParams : public ::testing::TestWithParam<ZooCase>
{
};

TEST_P(ZooParams, ParameterCountMatchesName)
{
    const auto &[model, expected] = GetParam();
    EXPECT_NEAR(model.numParameters() / 1e9, expected,
                0.02 * expected);
}

/** Names each case by its fields (gtest otherwise prints the raw
 *  bytes, struct padding included, which differs between builds). */
void
PrintTo(const ZooCase &c, std::ostream *os)
{
    std::string name = c.model.name;
    std::replace(name.begin(), name.end(), ' ', '_');
    *os << name;
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ZooParams,
    ::testing::Values(ZooCase{zoo::scaled3_6b(), 3.6},
                      ZooCase{zoo::scaled18_4b(), 18.4},
                      ZooCase{zoo::scaled39_1b(), 39.1},
                      ZooCase{zoo::scaled81_2b(), 81.2},
                      ZooCase{zoo::gpt3_175b(), 175.0},
                      ZooCase{zoo::mtNlg530b(), 529.6}));

TEST(ModelConfig, ParametersPerLayerDominatedBy12hSquared)
{
    const ModelConfig m = zoo::mtNlg530b();
    const double h = static_cast<double>(m.hidden_size);
    EXPECT_NEAR(m.parametersPerLayer(), 12.0 * h * h,
                0.01 * 12.0 * h * h);
}

TEST(ModelConfig, ModelFlopsMatchesSixNd)
{
    // modelFlops ~= 6 * N * tokens for large models (the attention
    // and vocab terms add a few percent).
    const ModelConfig m = zoo::mtNlg530b();
    const double tokens = 270e9;
    const double six_nd = 6.0 * m.numParameters() * tokens;
    const double flops = m.modelFlops(tokens);
    EXPECT_GT(flops, 0.95 * six_nd);
    EXPECT_LT(flops, 1.10 * six_nd);
}

TEST(ModelConfig, HardwareFlopsRecomputeFactor)
{
    const ModelConfig m = zoo::scaled18_4b();
    const double base = m.hardwareFlops(1e9, false);
    const double recompute = m.hardwareFlops(1e9, true);
    EXPECT_DOUBLE_EQ(base, m.modelFlops(1e9));
    EXPECT_NEAR(recompute / base, 96.0 / 72.0, 1e-12);
}

TEST(ModelConfig, FlopsLinearInTokens)
{
    const ModelConfig m = zoo::scaled39_1b();
    EXPECT_NEAR(m.modelFlops(2e9), 2.0 * m.modelFlops(1e9), 1e3);
}

TEST(ModelConfig, HeadDim)
{
    EXPECT_EQ(zoo::mtNlg530b().headDim(), 160);
    EXPECT_EQ(zoo::gpt3_175b().headDim(), 128);
}

TEST(ModelConfig, ValidateRejectsBadHeads)
{
    ModelConfig m = zoo::gpt3_175b();
    m.num_heads = 97; // does not divide h = 12288
    EXPECT_THROW(m.validate(), std::runtime_error);
}

TEST(ModelConfig, ValidateRejectsNonPositive)
{
    ModelConfig m = zoo::gpt3_175b();
    m.num_layers = 0;
    EXPECT_THROW(m.validate(), std::runtime_error);
}

TEST(ModelConfig, MakeModelNamesBySize)
{
    const ModelConfig m = makeModel(6144, 40, 48);
    EXPECT_NE(m.name.find("B"), std::string::npos);
    EXPECT_EQ(m.hidden_size, 6144);
}

TEST(ModelConfig, BriefContainsHyperparameters)
{
    const std::string b = zoo::scaled18_4b().brief();
    EXPECT_NE(b.find("h=6144"), std::string::npos);
    EXPECT_NE(b.find("L=40"), std::string::npos);
}

TEST(Zoo, TableIIIBatchSizes)
{
    EXPECT_EQ(zoo::tableIIIBatchSize(zoo::scaled18_4b()), 1024);
    EXPECT_EQ(zoo::tableIIIBatchSize(zoo::scaled39_1b()), 1536);
    EXPECT_EQ(zoo::tableIIIBatchSize(zoo::scaled81_2b()), 1792);
}

TEST(Zoo, TableIIIBatchRejectsOtherModels)
{
    EXPECT_THROW(zoo::tableIIIBatchSize(zoo::gpt3_175b()),
                 std::runtime_error);
}

TEST(Zoo, TableIVCandidateCount)
{
    // Table IV enumerates seven (h, L) candidates.
    EXPECT_EQ(zoo::tableIVCandidates().size(), 7u);
}

TEST(Zoo, TableIVCandidateSizes)
{
    const auto cands = zoo::tableIVCandidates();
    // First row: (12288, 80) -> 145.61B; fifth: (10240, 60) -> 76.04B.
    EXPECT_NEAR(cands[0].numParameters() / 1e9, 145.61, 2.0);
    EXPECT_NEAR(cands[4].numParameters() / 1e9, 76.04, 1.5);
}


TEST(ModelConfig, EqualityAndHashing)
{
    const ModelConfig a = makeModel(1024, 8, 16, 512, 8192);
    const ModelConfig b = makeModel(1024, 8, 16, 512, 8192);
    EXPECT_EQ(a, b);
    EXPECT_EQ(hashValue(a), hashValue(b));

    ModelConfig wider = a;
    wider.hidden_size = 2048;
    EXPECT_NE(wider, a);
    EXPECT_NE(hashValue(wider), hashValue(a));

    ModelConfig renamed = a;
    renamed.name = "other";
    EXPECT_NE(renamed, a);
    EXPECT_NE(hashValue(renamed), hashValue(a));
}

} // namespace
} // namespace vtrain
