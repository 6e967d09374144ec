// ML library tests: linalg, datasets, ELM, LSTM, thresholds.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "rtad/core/experiment.hpp"
#include "rtad/ml/dataset.hpp"
#include "rtad/ml/elm.hpp"
#include "rtad/ml/linalg.hpp"
#include "rtad/ml/lstm.hpp"
#include "rtad/ml/mlp.hpp"
#include "rtad/ml/threshold.hpp"
#include "rtad/workloads/spec_model.hpp"

namespace rtad::ml {
namespace {

// FNV-1a over the object representation of a run of values (tokens or
// float weights). Little-endian hosts only, like every golden in the suite.
template <typename T>
std::uint64_t fnv1a(const T* data, std::size_t n,
                    std::uint64_t h = 0xCBF29CE484222325ULL) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n * sizeof(T); ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(Linalg, MatvecAndMatmul) {
  Matrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vector y = matvec(a, {1.0f, 1.0f, 1.0f});
  EXPECT_FLOAT_EQ(y[0], 6.0f);
  EXPECT_FLOAT_EQ(y[1], 15.0f);

  const Matrix at = a.transposed();
  const Matrix aat = matmul(a, at);
  EXPECT_FLOAT_EQ(aat(0, 0), 14.0f);
  EXPECT_FLOAT_EQ(aat(0, 1), 32.0f);
  EXPECT_FLOAT_EQ(aat(1, 1), 77.0f);

  const Matrix ata = matmul_at_b(a, a);
  EXPECT_FLOAT_EQ(ata(0, 0), 17.0f);
  EXPECT_FLOAT_EQ(ata(2, 2), 45.0f);
}

TEST(Linalg, ShapeChecks) {
  Matrix a(2, 3);
  EXPECT_THROW(matvec(a, {1.0f, 2.0f}), std::invalid_argument);
  Matrix b(2, 2);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Linalg, RidgeSolveRecoversSolution) {
  // Solve (A + 0) x = b for a known SPD system.
  Matrix a(2, 2);
  a(0, 0) = 4;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  Matrix b(2, 1);
  b(0, 0) = 1;
  b(1, 0) = 2;
  const Matrix x = ridge_solve(a, 0.0f, b);
  EXPECT_NEAR(x(0, 0), 1.0 / 11.0, 1e-5);
  EXPECT_NEAR(x(1, 0), 7.0 / 11.0, 1e-5);
}

TEST(Linalg, RidgeSolveRejectsIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 0;
  a(1, 1) = -1;
  Matrix b(2, 1);
  EXPECT_THROW(ridge_solve(a, 0.0f, b), std::runtime_error);
}

TEST(Linalg, SoftmaxNormalizes) {
  Vector v = {1.0f, 2.0f, 3.0f};
  softmax(v);
  EXPECT_NEAR(v[0] + v[1] + v[2], 1.0f, 1e-6);
  EXPECT_GT(v[2], v[1]);
}

TEST(Linalg, DeviceActivationsMatchReference) {
  for (float x : {-4.0f, -1.0f, 0.0f, 0.5f, 3.0f}) {
    EXPECT_NEAR(device_sigmoid(x), 1.0f / (1.0f + std::exp(-x)), 1e-5);
    EXPECT_NEAR(device_tanh(x), std::tanh(x), 1e-5);
  }
}

TEST(Dataset, MonitoredSitesDeterministicAndSorted) {
  const auto& p = workloads::find_profile("astar");
  DatasetBuilder a(p, 3), b(p, 3);
  EXPECT_EQ(a.monitored_addresses(), b.monitored_addresses());
  EXPECT_TRUE(std::is_sorted(a.monitored_addresses().begin(),
                             a.monitored_addresses().end()));
  EXPECT_EQ(a.monitored_addresses().size(), a.config().monitored_sites);
}

TEST(Dataset, LstmTokensWithinVocab) {
  const auto& p = workloads::find_profile("omnetpp");
  DatasetBuilder builder(p, 5);
  const auto ds = builder.collect_lstm(300);
  EXPECT_EQ(ds.tokens.size(), 300u);
  for (const auto t : ds.tokens) {
    EXPECT_LT(t, builder.config().monitored_sites);
  }
}

TEST(Dataset, RejectsAProfileWithoutCalls) {
  // Monitored sites are call targets: with no calls, collect_lstm() would
  // spin forever, so the builder refuses the profile up front.
  auto p = workloads::find_profile("omnetpp");
  p.call_fraction = 0.0;
  try {
    DatasetBuilder builder(p, 5);
    ADD_FAILURE() << "accepted a profile with call_fraction == 0";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("call_fraction"), std::string::npos)
        << e.what();
  }
}

TEST(Dataset, LstmTokenLookupMatchesCollection) {
  const auto& p = workloads::find_profile("omnetpp");
  DatasetBuilder builder(p, 5);
  const auto& mon = builder.monitored_addresses();
  for (std::size_t i = 0; i < mon.size(); i += 9) {
    EXPECT_EQ(builder.lstm_token(mon[i]), i);
  }
  EXPECT_EQ(builder.lstm_token(0xDEAD), builder.config().lstm_vocab - 1);
}

// Golden pins of the default model set-up on 456.hmmer. Any change to the
// generator's draw order, the waypoint filter or the BPTT float arithmetic
// moves one of these digests; a faster set-up must reproduce them exactly.
TEST(Golden, HmmerLstmTokenStream) {
  const core::TrainingOptions options;
  DatasetBuilder builder(workloads::find_profile("hmmer"), options.seed);
  const auto ds = builder.collect_lstm(options.lstm_train_tokens +
                                       options.lstm_val_tokens);
  ASSERT_EQ(ds.tokens.size(), 3800u);
  EXPECT_EQ(fnv1a(ds.tokens.data(), ds.tokens.size()), 0x39FCEC1ACFAA8BA3ULL);
}

TEST(Golden, HmmerTrainedLstmAndThresholds) {
  const auto models =
      core::train_models(workloads::find_profile("hmmer"), {});
  const Lstm& lstm = *models.lstm;
  std::uint64_t h = fnv1a(lstm.wx().data(),
                          lstm.wx().rows() * lstm.wx().cols());
  h = fnv1a(lstm.wh().data(), lstm.wh().rows() * lstm.wh().cols(), h);
  h = fnv1a(lstm.why().data(), lstm.why().rows() * lstm.why().cols(), h);
  h = fnv1a(lstm.bias().data(), lstm.bias().size(), h);
  h = fnv1a(lstm.by().data(), lstm.by().size(), h);
  const float thresholds[] = {models.lstm_threshold.value(),
                              models.elm_threshold.value()};
  h = fnv1a(thresholds, 2, h);
  EXPECT_EQ(h, 0xE90EC81B0DADCB76ULL);
}

TEST(Dataset, ElmWindowsNormalized) {
  const auto& p = workloads::find_profile("gcc");
  DatasetBuilder builder(p, 7);
  const auto ds = builder.collect_elm(50);
  ASSERT_EQ(ds.windows.size(), 50u);
  for (const auto& w : ds.windows) {
    EXPECT_EQ(w.size(), builder.config().elm_vocab);
    float sum = 0;
    for (const float v : w) sum += v;
    EXPECT_NEAR(sum, 1.0f, 1e-4);  // counts / window sum to 1
  }
}

TEST(Elm, TrainsAndScoresNormalLow) {
  const auto& p = workloads::find_profile("gcc");
  DatasetBuilder builder(p, 11);
  auto ds = builder.collect_elm(300);
  ElmConfig cfg;
  cfg.input_dim = builder.config().elm_vocab;
  cfg.hidden = 320;
  Elm elm(cfg);
  std::vector<Vector> train(ds.windows.begin(), ds.windows.begin() + 250);
  elm.train(train);

  // Normal windows reconstruct well; windows of uniformly random (but
  // legitimate) syscalls — the paper's attack emulation — reconstruct
  // poorly.
  double normal_mean = 0;
  for (std::size_t i = 250; i < 300; ++i) {
    normal_mean += elm.score(ds.windows[i]);
  }
  normal_mean /= 50;
  sim::Xoshiro256 rng(9);
  double attack_mean = 0;
  const auto window = builder.config().elm_window;
  for (int t = 0; t < 20; ++t) {
    Vector x(cfg.input_dim, 0.0f);
    for (std::uint32_t i = 0; i < window; ++i) {
      x[builder.elm_bucket(workloads::TraceGenerator::syscall_address(
          rng.uniform_below(p.syscall_kinds)))] +=
          1.0f / static_cast<float>(window);
    }
    attack_mean += elm.score(x);
  }
  attack_mean /= 20;
  EXPECT_GT(attack_mean, 3.0 * normal_mean);
}

TEST(Elm, DeterministicGivenSeed) {
  ElmConfig cfg;
  cfg.input_dim = 8;
  cfg.hidden = 64;
  Elm a(cfg), b(cfg);
  const Vector x = {0.1f, 0.2f, 0.0f, 0.0f, 0.3f, 0.1f, 0.2f, 0.1f};
  EXPECT_EQ(a.hidden(x), b.hidden(x));
}

TEST(Elm, ValidatesUsage) {
  ElmConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden = 64;
  Elm elm(cfg);
  EXPECT_THROW(elm.score({0.1f, 0.2f, 0.3f, 0.4f}), std::logic_error);
  EXPECT_THROW(elm.train({}), std::invalid_argument);
  EXPECT_THROW(elm.hidden({0.1f}), std::invalid_argument);
}

TEST(Lstm, TrainingReducesNll) {
  // A strongly structured sequence: repeating 0,1,2,...,7 with noise.
  sim::Xoshiro256 rng(3);
  std::vector<std::uint32_t> tokens;
  for (int i = 0; i < 3000; ++i) {
    tokens.push_back(rng.chance(0.05)
                         ? static_cast<std::uint32_t>(rng.uniform_below(8))
                         : static_cast<std::uint32_t>(i % 8));
  }
  LstmConfig cfg;
  cfg.vocab = 8;
  cfg.hidden = 16;
  cfg.epochs = 4;
  Lstm lstm(cfg);
  const float untrained = Lstm(cfg).evaluate(tokens);
  const float final_nll = lstm.train(tokens);
  EXPECT_LT(final_nll, untrained * 0.5f);
  // And the trained model predicts the cycle.
  const float eval = lstm.evaluate(tokens);
  EXPECT_LT(eval, 1.0f);  // near-deterministic sequence => low NLL
}

TEST(Lstm, SurprisedByShuffledTokens) {
  sim::Xoshiro256 rng(5);
  std::vector<std::uint32_t> tokens;
  for (int i = 0; i < 3000; ++i) tokens.push_back(i % 6);
  LstmConfig cfg;
  cfg.vocab = 8;
  cfg.hidden = 16;
  cfg.epochs = 4;
  Lstm lstm(cfg);
  lstm.train(tokens);
  std::vector<std::uint32_t> shuffled;
  for (int i = 0; i < 500; ++i) {
    shuffled.push_back(static_cast<std::uint32_t>(rng.uniform_below(8)));
  }
  EXPECT_GT(lstm.evaluate(shuffled), 2.0f * lstm.evaluate(tokens));
}

TEST(Lstm, EwmaScoreTracksSurprise) {
  std::vector<std::uint32_t> tokens;
  for (int i = 0; i < 2000; ++i) tokens.push_back(i % 4);
  LstmConfig cfg;
  cfg.vocab = 8;
  cfg.hidden = 16;
  cfg.epochs = 4;
  Lstm lstm(cfg);
  lstm.train(tokens);
  auto state = lstm.initial_state();
  for (int i = 0; i < 100; ++i) lstm.step(state, i % 4);
  const float calm = state.ewma_nll;
  for (int i = 0; i < 5; ++i) lstm.step(state, 7);  // out-of-pattern token
  EXPECT_GT(state.ewma_nll, calm * 1.5f);
}

TEST(Lstm, StateIsolation) {
  LstmConfig cfg;
  cfg.vocab = 8;
  cfg.hidden = 8;
  Lstm lstm(cfg);
  std::vector<std::uint32_t> tokens(200, 1);
  for (std::size_t i = 0; i < tokens.size(); i += 2) tokens[i] = 0;
  lstm.train(tokens);
  auto s1 = lstm.initial_state();
  auto s2 = lstm.initial_state();
  lstm.step(s1, 0);
  EXPECT_EQ(s2.h, lstm.initial_state().h);  // untouched
}

TEST(Lstm, ValidatesInput) {
  LstmConfig cfg;
  cfg.vocab = 4;
  cfg.hidden = 4;
  Lstm lstm(cfg);
  auto state = lstm.initial_state();
  EXPECT_THROW(lstm.step(state, 4), std::invalid_argument);
  EXPECT_THROW(lstm.train({1, 2}), std::invalid_argument);
}

TEST(Mlp, TrainingReducesReconstructionError) {
  const auto& p = workloads::find_profile("gcc");
  DatasetBuilder builder(p, 13);
  auto ds = builder.collect_elm(200);
  MlpConfig cfg;
  cfg.input_dim = builder.config().elm_vocab;
  cfg.hidden = 64;
  cfg.epochs = 20;
  Mlp mlp(cfg);
  // Untrained reconstruction error of a random network.
  Mlp untrained(cfg);
  const float final_mse = mlp.train(ds.windows);
  double before = 0, after = 0;
  untrained.train({ds.windows[0]});  // mark trained for score(); 1 sample
  for (int i = 0; i < 50; ++i) {
    before += untrained.score(ds.windows[i]);
    after += mlp.score(ds.windows[i]);
  }
  EXPECT_LT(after, before * 0.5);
  EXPECT_GT(final_mse, 0.0f);
}

TEST(Mlp, MatchesElmAccuracyClass) {
  const auto& p = workloads::find_profile("astar");
  DatasetBuilder builder(p, 15);
  auto ds = builder.collect_elm(260);
  std::vector<Vector> train(ds.windows.begin(), ds.windows.begin() + 200);

  MlpConfig mcfg;
  mcfg.input_dim = builder.config().elm_vocab;
  mcfg.hidden = 128;
  mcfg.epochs = 30;
  Mlp mlp(mcfg);
  mlp.train(train);

  // Normal windows reconstruct much better than storm windows.
  double normal = 0;
  for (std::size_t i = 200; i < 260; ++i) normal += mlp.score(ds.windows[i]);
  normal /= 60;
  Vector storm(mcfg.input_dim, 0.0f);
  storm[3] = 1.0f;  // all mass in one bucket
  EXPECT_GT(mlp.score(storm), 5.0 * normal);
}

TEST(Mlp, ValidatesUsage) {
  MlpConfig cfg;
  cfg.input_dim = 8;
  cfg.hidden = 16;
  Mlp mlp(cfg);
  EXPECT_THROW(mlp.score(Vector(8, 0.1f)), std::logic_error);
  EXPECT_THROW(mlp.train({}), std::invalid_argument);
  EXPECT_THROW(mlp.hidden(Vector(3, 0.1f)), std::invalid_argument);
  EXPECT_EQ(mlp.parameter_count(), 8u * 16 + 16 + 16u * 8);
}

TEST(Threshold, CalibratesAtPercentile) {
  std::vector<float> scores;
  for (int i = 1; i <= 100; ++i) scores.push_back(static_cast<float>(i));
  const auto t = Threshold::calibrate(scores, 99.0, 1.0f);
  EXPECT_FLOAT_EQ(t.value(), 99.0f);
  EXPECT_TRUE(t.exceeded(100.0f));
  EXPECT_FALSE(t.exceeded(99.0f));
}

TEST(Threshold, MarginScales) {
  const auto t = Threshold::calibrate({10.0f}, 99.0, 1.5f);
  EXPECT_FLOAT_EQ(t.value(), 15.0f);
  EXPECT_THROW(Threshold::calibrate({}, 99.0), std::invalid_argument);
}

TEST(Threshold, DetectionStats) {
  Threshold t(5.0f);
  const auto s = evaluate_detection(t, {1.0f, 2.0f, 6.0f}, {7.0f, 8.0f, 3.0f});
  EXPECT_EQ(s.true_positives, 2u);
  EXPECT_EQ(s.false_negatives, 1u);
  EXPECT_EQ(s.false_positives, 1u);
  EXPECT_EQ(s.true_negatives, 2u);
  EXPECT_NEAR(s.true_positive_rate(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.false_positive_rate(), 1.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace rtad::ml
