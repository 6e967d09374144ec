#include "rtad/ml/lstm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rtad::ml {

namespace {
constexpr float kLog2E = 1.4426950408889634f;
}

float device_sigmoid(float x) noexcept {
  return 1.0f / (1.0f + std::exp2(-x * kLog2E));
}

float device_tanh(float x) noexcept {
  // tanh(x) = 2*sigmoid(2x) - 1, expressed with the same exp2 primitive the
  // kernels use.
  return 2.0f / (1.0f + std::exp2(-2.0f * x * kLog2E)) - 1.0f;
}

Lstm::Lstm(LstmConfig config) : config_(config) {
  if (config.vocab == 0 || config.hidden == 0) {
    throw std::invalid_argument("LSTM dims must be positive");
  }
  sim::Xoshiro256 rng(config.seed);
  const auto h = config.hidden;
  const auto v = config.vocab;
  const float sx = 1.0f / std::sqrt(static_cast<float>(v));
  const float sh = 1.0f / std::sqrt(static_cast<float>(h));
  wx_ = Matrix::randn(4 * h, v, sx, rng);
  wh_ = Matrix::randn(4 * h, h, sh, rng);
  why_ = Matrix::randn(v, h, sh, rng);
  b_.assign(4 * h, 0.0f);
  by_.assign(v, 0.0f);
  // Forget-gate bias +1: standard trick for stable early training.
  for (std::uint32_t i = h; i < 2 * h; ++i) b_[i] = 1.0f;
}

void Lstm::forward_cell(std::uint32_t token, const Vector& h_prev,
                        const Vector& c_prev, Vector& gates, Vector& c,
                        Vector& h) const {
  const auto hd = config_.hidden;
  gates.assign(4 * hd, 0.0f);
  // pre = Wx[:, token] + Wh * h_prev + b
  for (std::uint32_t r = 0; r < 4 * hd; ++r) {
    float acc = wx_(r, token) + b_[r];
    const float* row = wh_.data() + r * hd;
    for (std::uint32_t k = 0; k < hd; ++k) acc += row[k] * h_prev[k];
    gates[r] = acc;
  }
  c.assign(hd, 0.0f);
  h.assign(hd, 0.0f);
  for (std::uint32_t j = 0; j < hd; ++j) {
    const float i_g = device_sigmoid(gates[j]);
    const float f_g = device_sigmoid(gates[hd + j]);
    const float g_g = device_tanh(gates[2 * hd + j]);
    const float o_g = device_sigmoid(gates[3 * hd + j]);
    gates[j] = i_g;             // cache activated gates for backprop
    gates[hd + j] = f_g;
    gates[2 * hd + j] = g_g;
    gates[3 * hd + j] = o_g;
    c[j] = f_g * c_prev[j] + i_g * g_g;
    h[j] = o_g * device_tanh(c[j]);
  }
}

Lstm::State Lstm::initial_state() const {
  State s;
  s.h.assign(config_.hidden, 0.0f);
  s.c.assign(config_.hidden, 0.0f);
  return s;
}

Vector Lstm::predict(const State& state) const {
  Vector logits = matvec(why_, state.h);
  for (std::size_t i = 0; i < logits.size(); ++i) logits[i] += by_[i];
  softmax(logits);
  return logits;
}

float Lstm::step(State& state, std::uint32_t token) const {
  if (token >= config_.vocab) throw std::invalid_argument("token out of vocab");
  const Vector probs = predict(state);
  const float p = std::max(probs[token], 1e-12f);
  const float nll = -std::log(p);

  Vector gates, c, h;
  forward_cell(token, state.h, state.c, gates, c, h);
  state.h = std::move(h);
  state.c = std::move(c);

  if (!state.warm) {
    state.ewma_nll = nll;
    state.warm = true;
  } else {
    state.ewma_nll = (1.0f - config_.score_ewma) * state.ewma_nll +
                     config_.score_ewma * nll;
  }
  return nll;
}

float Lstm::evaluate(const std::vector<std::uint32_t>& tokens) const {
  State s = initial_state();
  double total = 0.0;
  for (const auto t : tokens) total += step(s, t);
  return tokens.empty() ? 0.0f
                        : static_cast<float>(total / static_cast<double>(
                                                         tokens.size()));
}

struct Lstm::StepCache {
  std::uint32_t token;
  Vector h_prev, c_prev;
  Vector gates;  // activated i,f,g,o
  Vector c, h;
  Vector probs;
  std::uint32_t target;
};

float Lstm::train(const std::vector<std::uint32_t>& tokens) {
  if (tokens.size() < config_.bptt + 1) {
    throw std::invalid_argument("not enough tokens to train");
  }
  const auto hd = config_.hidden;
  const auto v = config_.vocab;

  // Flattened parameter/gradient/Adam-moment layout.
  std::vector<float*> params;
  std::vector<std::size_t> sizes;
  auto reg_m = [&](Matrix& m) {
    params.push_back(m.data());
    sizes.push_back(m.rows() * m.cols());
  };
  auto reg_v = [&](Vector& vec) {
    params.push_back(vec.data());
    sizes.push_back(vec.size());
  };
  reg_m(wx_);
  reg_m(wh_);
  reg_m(why_);
  reg_v(b_);
  reg_v(by_);
  std::size_t total_size = 0;
  for (auto s : sizes) total_size += s;
  std::vector<float> grad(total_size, 0.0f);
  std::vector<float> adam_m(total_size, 0.0f), adam_v(total_size, 0.0f);

  auto grad_ptr = [&](std::size_t param_idx) {
    std::size_t off = 0;
    for (std::size_t i = 0; i < param_idx; ++i) off += sizes[i];
    return grad.data() + off;
  };
  float* g_wx = grad_ptr(0);
  float* g_wh = grad_ptr(1);
  float* g_why = grad_ptr(2);
  float* g_b = grad_ptr(3);
  float* g_by = grad_ptr(4);

  // Per-step buffers, allocated once and reused by every chunk.
  std::vector<StepCache> caches(config_.bptt);
  for (auto& sc : caches) sc.probs.resize(v);
  Vector dlogits(v), dh(hd), dpre(4 * hd);
  Vector dh_next(hd), dc_next(hd), dh_prev(hd), dc_prev(hd);

  double final_epoch_nll = 0.0;
  std::uint64_t adam_t = 0;

  for (std::uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    State state = initial_state();
    double epoch_nll = 0.0;
    std::size_t epoch_steps = 0;

    for (std::size_t base = 0; base + config_.bptt + 1 <= tokens.size();
         base += config_.bptt) {
      // ---- forward through the chunk ----
      const Vector* h = &state.h;
      const Vector* c = &state.c;
      for (std::uint32_t t = 0; t < config_.bptt; ++t) {
        StepCache& sc = caches[t];
        sc.token = tokens[base + t];
        sc.target = tokens[base + t + 1];
        sc.h_prev = *h;
        sc.c_prev = *c;
        forward_cell(sc.token, sc.h_prev, sc.c_prev, sc.gates, sc.c, sc.h);
        h = &sc.h;
        c = &sc.c;
        // logits = Why h + by, each row summed in column order (matvec's).
        for (std::uint32_t r = 0; r < v; ++r) {
          float acc = 0.0f;
          const float* row = why_.data() + static_cast<std::size_t>(r) * hd;
          for (std::uint32_t k = 0; k < hd; ++k) acc += row[k] * sc.h[k];
          sc.probs[r] = acc + by_[r];
        }
        softmax(sc.probs);
        epoch_nll += -std::log(std::max(sc.probs[sc.target], 1e-12f));
        ++epoch_steps;
      }
      state.h = *h;
      state.c = *c;

      // ---- backward ----
      // The transposed products dh = Why^T dlogits and dh_prev = Wh^T dpre
      // walk the weights row by row (row-major, cache order) and add each
      // row's term to every output. Every output still sums its terms in
      // increasing r, so the result is bit-identical to a column-wise dot.
      std::fill(grad.begin(), grad.end(), 0.0f);
      std::fill(dh_next.begin(), dh_next.end(), 0.0f);
      std::fill(dc_next.begin(), dc_next.end(), 0.0f);
      for (std::size_t t = caches.size(); t-- > 0;) {
        const StepCache& sc = caches[t];
        // Softmax + cross-entropy.
        dlogits = sc.probs;
        dlogits[sc.target] -= 1.0f;
        dh = dh_next;
        for (std::uint32_t r = 0; r < v; ++r) {
          const float d = dlogits[r];
          g_by[r] += d;
          float* grow = g_why + static_cast<std::size_t>(r) * hd;
          const float* wrow = why_.data() + static_cast<std::size_t>(r) * hd;
          for (std::uint32_t k = 0; k < hd; ++k) {
            grow[k] += d * sc.h[k];
            dh[k] += wrow[k] * d;
          }
        }
        // Cell backward.
        for (std::uint32_t j = 0; j < hd; ++j) {
          const float i_g = sc.gates[j];
          const float f_g = sc.gates[hd + j];
          const float g_g = sc.gates[2 * hd + j];
          const float o_g = sc.gates[3 * hd + j];
          const float tc = device_tanh(sc.c[j]);
          const float do_ = dh[j] * tc;
          float dc = dh[j] * o_g * (1.0f - tc * tc) + dc_next[j];
          const float di = dc * g_g;
          const float dg = dc * i_g;
          const float df = dc * sc.c_prev[j];
          dc_prev[j] = dc * f_g;
          dpre[j] = di * i_g * (1.0f - i_g);
          dpre[hd + j] = df * f_g * (1.0f - f_g);
          dpre[2 * hd + j] = dg * (1.0f - g_g * g_g);
          dpre[3 * hd + j] = do_ * o_g * (1.0f - o_g);
        }
        std::fill(dh_prev.begin(), dh_prev.end(), 0.0f);
        for (std::uint32_t r = 0; r < 4 * hd; ++r) {
          const float d = dpre[r];
          g_b[r] += d;
          g_wx[static_cast<std::size_t>(r) * v + sc.token] += d;
          float* grow = g_wh + static_cast<std::size_t>(r) * hd;
          const float* wrow = wh_.data() + static_cast<std::size_t>(r) * hd;
          for (std::uint32_t k = 0; k < hd; ++k) {
            grow[k] += d * sc.h_prev[k];
            dh_prev[k] += wrow[k] * d;
          }
        }
        dh_next.swap(dh_prev);
        dc_next.swap(dc_prev);
      }

      // ---- gradient clip (global norm) + Adam ----
      double norm_sq = 0.0;
      for (float g : grad) norm_sq += static_cast<double>(g) * g;
      const double norm = std::sqrt(norm_sq);
      const float clip_scale =
          norm > config_.grad_clip
              ? static_cast<float>(config_.grad_clip / norm)
              : 1.0f;
      ++adam_t;
      const float b1 = config_.adam_beta1, b2 = config_.adam_beta2;
      const float bc1 = 1.0f - std::pow(b1, static_cast<float>(adam_t));
      const float bc2 = 1.0f - std::pow(b2, static_cast<float>(adam_t));
      std::size_t off = 0;
      for (std::size_t p = 0; p < params.size(); ++p) {
        float* w = params[p];
        for (std::size_t i = 0; i < sizes[p]; ++i, ++off) {
          const float g = grad[off] * clip_scale;
          adam_m[off] = b1 * adam_m[off] + (1.0f - b1) * g;
          adam_v[off] = b2 * adam_v[off] + (1.0f - b2) * g * g;
          const float mhat = adam_m[off] / bc1;
          const float vhat = adam_v[off] / bc2;
          w[i] -= config_.learning_rate * mhat /
                  (std::sqrt(vhat) + config_.adam_eps);
        }
      }
    }
    final_epoch_nll =
        epoch_steps > 0 ? epoch_nll / static_cast<double>(epoch_steps) : 0.0;
  }
  trained_ = true;
  return static_cast<float>(final_epoch_nll);
}

}  // namespace rtad::ml
