#include "optim/autograd.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace ms::optim {

Tensor Tensor::zeros(std::vector<int> shape, bool requires_grad) {
  return full(std::move(shape), 0.0f, requires_grad);
}

Tensor Tensor::full(std::vector<int> shape, float fill, bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->shape = std::move(shape);
  node->value.assign(static_cast<std::size_t>(node->numel()), fill);
  node->requires_grad = requires_grad;
  return Tensor(std::move(node));
}

Tensor Tensor::randn(std::vector<int> shape, Rng& rng, float scale,
                     bool requires_grad) {
  Tensor t = zeros(std::move(shape), requires_grad);
  const std::int64_t n = t.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    t.data()[i] = static_cast<float>(rng.normal()) * scale;
  }
  return t;
}

Tensor Tensor::from(std::vector<float> data, std::vector<int> shape,
                    bool requires_grad) {
  auto node = std::make_shared<Node>();
  node->shape = std::move(shape);
  assert(static_cast<std::int64_t>(data.size()) == node->numel());
  node->value = std::move(data);
  node->requires_grad = requires_grad;
  return Tensor(std::move(node));
}

void Tensor::backward() {
  assert(numel() == 1 && "backward() starts from a scalar loss");
  // Topological order over the parent DAG.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::function<void(Node*)> dfs = [&](Node* n) {
    if (!visited.insert(n).second) return;
    for (auto& p : n->parents) dfs(p.get());
    order.push_back(n);
  };
  dfs(node_.get());

  node_->ensure_grad();
  node_->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn) (*it)->backward_fn();
  }
}

Tensor make_result(std::vector<float> value, std::vector<int> shape,
                   std::vector<Tensor> parents,
                   std::function<void(Node&)> make_backward) {
  auto node = std::make_shared<Node>();
  node->shape = std::move(shape);
  node->value = std::move(value);
  for (const auto& p : parents) {
    node->requires_grad |= p.requires_grad();
    node->parents.push_back(p.node());
  }
  if (node->requires_grad && make_backward) {
    Node* raw = node.get();
    // The closure captures the result node by raw pointer; the node owns
    // the closure, so the pointer is valid for the closure's lifetime.
    node->backward_fn = [raw, fn = std::move(make_backward)] { fn(*raw); };
    node->ensure_grad();
  }
  return Tensor(std::move(node));
}

namespace {
// Parents that require grad get their buffers materialized up front so the
// backward closures can accumulate unconditionally.
void prep(const Tensor& t) {
  if (t.requires_grad()) t.node()->ensure_grad();
}
}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  assert(a.shape().size() == 2 && b.shape().size() == 2);
  const int m = trans_a ? a.dim(1) : a.dim(0);
  const int k = trans_a ? a.dim(0) : a.dim(1);
  const int k2 = trans_b ? b.dim(1) : b.dim(0);
  const int n = trans_b ? b.dim(0) : b.dim(1);
  assert(k == k2);
  (void)k2;
  prep(a);
  prep(b);

  auto at = [&](const float* p, int r, int c, bool t, int rows, int cols) {
    (void)rows;
    return t ? p[c * cols + r] : p[r * cols + c];
  };
  // Element (r,c) of op(a): if !trans_a it's a[r*k + c] with row length k;
  // if trans_a, a is [k, m] stored row-major, so op(a)(r,c) = a[c*m + r].
  const float* pa = a.data();
  const float* pb = b.data();
  std::vector<float> out(static_cast<std::size_t>(m) * n, 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int l = 0; l < k; ++l) {
      const float av = trans_a ? pa[l * m + i] : pa[i * k + l];
      if (av == 0.0f) continue;
      const float* brow = trans_b ? nullptr : &pb[l * n];
      float* orow = &out[static_cast<std::size_t>(i) * n];
      if (!trans_b) {
        for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
      } else {
        for (int j = 0; j < n; ++j) orow[j] += av * pb[j * k + l];
      }
    }
  }
  (void)at;

  Tensor ta = a, tb = b;
  return make_result(
      std::move(out), {m, n}, {a, b},
      [ta, tb, m, n, k, trans_a, trans_b](Node& res) mutable {
        const float* g = res.grad.data();
        // dA (as op(a) grad): dOpA = G * op(B)^T  [m,k]
        if (ta.requires_grad()) {
          float* da = ta.grad();
          const float* pb = tb.data();
          for (int i = 0; i < m; ++i) {
            for (int l = 0; l < k; ++l) {
              float acc = 0.0f;
              for (int j = 0; j < n; ++j) {
                const float bv = trans_b ? pb[j * k + l] : pb[l * n + j];
                acc += g[i * n + j] * bv;
              }
              if (trans_a) {
                da[l * m + i] += acc;
              } else {
                da[i * k + l] += acc;
              }
            }
          }
        }
        if (tb.requires_grad()) {
          float* db = tb.grad();
          const float* pa = ta.data();
          for (int l = 0; l < k; ++l) {
            for (int j = 0; j < n; ++j) {
              float acc = 0.0f;
              for (int i = 0; i < m; ++i) {
                const float av = trans_a ? pa[l * m + i] : pa[i * k + l];
                acc += av * g[i * n + j];
              }
              if (trans_b) {
                db[j * k + l] += acc;
              } else {
                db[l * n + j] += acc;
              }
            }
          }
        }
      });
}

Tensor add(const Tensor& a, const Tensor& b) {
  prep(a);
  prep(b);
  const bool broadcast =
      b.shape().size() == 1 && a.shape().size() == 2 && b.dim(0) == a.dim(1);
  assert(broadcast || a.shape() == b.shape());
  std::vector<float> out(a.node()->value);
  if (broadcast) {
    const int m = a.dim(0), n = a.dim(1);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n; ++j) out[static_cast<std::size_t>(i) * n + j] += b.data()[j];
    }
  } else {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += b.data()[i];
  }
  Tensor ta = a, tb = b;
  return make_result(std::move(out), a.shape(), {a, b},
                     [ta, tb, broadcast](Node& res) mutable {
                       const float* g = res.grad.data();
                       const std::size_t total = res.value.size();
                       if (ta.requires_grad()) {
                         float* da = ta.grad();
                         for (std::size_t i = 0; i < total; ++i) da[i] += g[i];
                       }
                       if (tb.requires_grad()) {
                         float* db = tb.grad();
                         if (broadcast) {
                           const int n = ta.dim(1);
                           for (std::size_t i = 0; i < total; ++i) {
                             db[i % static_cast<std::size_t>(n)] += g[i];
                           }
                         } else {
                           for (std::size_t i = 0; i < total; ++i) db[i] += g[i];
                         }
                       }
                     });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  assert(a.shape() == b.shape());
  prep(a);
  prep(b);
  std::vector<float> out(a.node()->value);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] *= b.data()[i];
  Tensor ta = a, tb = b;
  return make_result(std::move(out), a.shape(), {a, b},
                     [ta, tb](Node& res) mutable {
                       const float* g = res.grad.data();
                       const std::size_t total = res.value.size();
                       if (ta.requires_grad()) {
                         float* da = ta.grad();
                         const float* vb = tb.data();
                         for (std::size_t i = 0; i < total; ++i) {
                           da[i] += g[i] * vb[i];
                         }
                       }
                       if (tb.requires_grad()) {
                         float* db = tb.grad();
                         const float* va = ta.data();
                         for (std::size_t i = 0; i < total; ++i) {
                           db[i] += g[i] * va[i];
                         }
                       }
                     });
}

Tensor scale(const Tensor& a, float s) {
  prep(a);
  std::vector<float> out(a.node()->value);
  for (auto& v : out) v *= s;
  Tensor ta = a;
  return make_result(std::move(out), a.shape(), {a}, [ta, s](Node& res) mutable {
    if (!ta.requires_grad()) return;
    float* da = ta.grad();
    const float* g = res.grad.data();
    for (std::size_t i = 0; i < res.value.size(); ++i) da[i] += g[i] * s;
  });
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}

Tensor gelu(const Tensor& a) {
  prep(a);
  std::vector<float> out(a.node()->value.size());
  const float* x = a.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float v = x[i];
    out[i] = 0.5f * v * (1.0f + std::tanh(kGeluC * (v + 0.044715f * v * v * v)));
  }
  Tensor ta = a;
  return make_result(std::move(out), a.shape(), {a}, [ta](Node& res) mutable {
    if (!ta.requires_grad()) return;
    float* da = ta.grad();
    const float* g = res.grad.data();
    const float* x = ta.data();
    for (std::size_t i = 0; i < res.value.size(); ++i) {
      const float v = x[i];
      const float u = kGeluC * (v + 0.044715f * v * v * v);
      const float t = std::tanh(u);
      const float du = kGeluC * (1.0f + 3.0f * 0.044715f * v * v);
      const float d = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du;
      da[i] += g[i] * d;
    }
  });
}

Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps) {
  assert(x.shape().size() == 2);
  const int m = x.dim(0), n = x.dim(1);
  assert(gamma.shape() == std::vector<int>{n} &&
         beta.shape() == std::vector<int>{n});
  prep(x);
  prep(gamma);
  prep(beta);

  std::vector<float> out(static_cast<std::size_t>(m) * n);
  std::vector<float> xhat(out.size());
  std::vector<float> inv_std(static_cast<std::size_t>(m));
  const float* px = x.data();
  for (int i = 0; i < m; ++i) {
    const float* row = &px[static_cast<std::size_t>(i) * n];
    float mean = 0.0f;
    for (int j = 0; j < n; ++j) mean += row[j];
    mean /= static_cast<float>(n);
    float var = 0.0f;
    for (int j = 0; j < n; ++j) var += (row[j] - mean) * (row[j] - mean);
    var /= static_cast<float>(n);
    const float inv = 1.0f / std::sqrt(var + eps);
    inv_std[static_cast<std::size_t>(i)] = inv;
    for (int j = 0; j < n; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * n + j;
      xhat[idx] = (row[j] - mean) * inv;
      out[idx] = xhat[idx] * gamma.data()[j] + beta.data()[j];
    }
  }

  Tensor tx = x, tg = gamma, tb = beta;
  return make_result(
      std::move(out), x.shape(), {x, gamma, beta},
      [tx, tg, tb, m, n, xhat = std::move(xhat),
       inv_std = std::move(inv_std)](Node& res) mutable {
        const float* g = res.grad.data();
        if (tg.requires_grad()) {
          float* dg = tg.grad();
          float* db = tb.grad();
          for (int i = 0; i < m; ++i) {
            for (int j = 0; j < n; ++j) {
              const std::size_t idx = static_cast<std::size_t>(i) * n + j;
              dg[j] += g[idx] * xhat[idx];
              db[j] += g[idx];
            }
          }
        }
        if (tx.requires_grad()) {
          float* dx = tx.grad();
          const float* gw = tg.data();
          for (int i = 0; i < m; ++i) {
            // dxhat = g * gamma; dx = (dxhat - mean(dxhat)
            //          - xhat * mean(dxhat * xhat)) * inv_std
            float mean_dxhat = 0.0f, mean_dxhat_xhat = 0.0f;
            for (int j = 0; j < n; ++j) {
              const std::size_t idx = static_cast<std::size_t>(i) * n + j;
              const float dxh = g[idx] * gw[j];
              mean_dxhat += dxh;
              mean_dxhat_xhat += dxh * xhat[idx];
            }
            mean_dxhat /= static_cast<float>(n);
            mean_dxhat_xhat /= static_cast<float>(n);
            for (int j = 0; j < n; ++j) {
              const std::size_t idx = static_cast<std::size_t>(i) * n + j;
              const float dxh = g[idx] * gw[j];
              dx[idx] += (dxh - mean_dxhat - xhat[idx] * mean_dxhat_xhat) *
                         inv_std[static_cast<std::size_t>(i)];
            }
          }
        }
      });
}

Tensor embedding(const std::vector<int>& ids, const Tensor& table) {
  assert(table.shape().size() == 2);
  const int v = table.dim(0), h = table.dim(1);
  (void)v;
  prep(table);
  std::vector<float> out(ids.size() * static_cast<std::size_t>(h));
  for (std::size_t t = 0; t < ids.size(); ++t) {
    assert(ids[t] >= 0 && ids[t] < v);
    std::copy_n(table.data() + static_cast<std::size_t>(ids[t]) * h, h,
                &out[t * static_cast<std::size_t>(h)]);
  }
  Tensor tt = table;
  return make_result(std::move(out), {static_cast<int>(ids.size()), h}, {table},
                     [tt, ids, h](Node& res) mutable {
                       if (!tt.requires_grad()) return;
                       float* dt = tt.grad();
                       const float* g = res.grad.data();
                       for (std::size_t t = 0; t < ids.size(); ++t) {
                         float* drow =
                             &dt[static_cast<std::size_t>(ids[t]) * h];
                         const float* grow = &g[t * static_cast<std::size_t>(h)];
                         for (int j = 0; j < h; ++j) drow[j] += grow[j];
                       }
                     });
}

Tensor attention(const Tensor& q, const Tensor& k, const Tensor& v, int heads,
                 int window) {
  assert(q.shape().size() == 2);
  assert(q.shape() == k.shape() && k.shape() == v.shape());
  const int T = q.dim(0);
  const int H = q.dim(1);
  assert(H % heads == 0);
  const int d = H / heads;
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(d));
  prep(q);
  prep(k);
  prep(v);

  // probs[head][i*T + j] stored densely for backward.
  std::vector<float> probs(static_cast<std::size_t>(heads) * T * T, 0.0f);
  std::vector<float> out(static_cast<std::size_t>(T) * H, 0.0f);
  const float* pq = q.data();
  const float* pk = k.data();
  const float* pv = v.data();

  auto attends = [&](int i, int j) {
    if (j > i) return false;                      // causal
    if (window > 0 && i - j >= window) return false;  // sliding window
    return true;
  };

  for (int hh = 0; hh < heads; ++hh) {
    const int off = hh * d;
    float* pr = &probs[static_cast<std::size_t>(hh) * T * T];
    for (int i = 0; i < T; ++i) {
      float maxs = -1e30f;
      for (int j = 0; j <= i; ++j) {
        if (!attends(i, j)) continue;
        float s = 0.0f;
        for (int c = 0; c < d; ++c) {
          s += pq[i * H + off + c] * pk[j * H + off + c];
        }
        s *= inv_sqrt_d;
        pr[i * T + j] = s;
        maxs = std::max(maxs, s);
      }
      float denom = 0.0f;
      for (int j = 0; j <= i; ++j) {
        if (!attends(i, j)) continue;
        pr[i * T + j] = std::exp(pr[i * T + j] - maxs);
        denom += pr[i * T + j];
      }
      for (int j = 0; j <= i; ++j) {
        if (!attends(i, j)) {
          pr[i * T + j] = 0.0f;
          continue;
        }
        pr[i * T + j] /= denom;
        const float p = pr[i * T + j];
        for (int c = 0; c < d; ++c) {
          out[static_cast<std::size_t>(i) * H + off + c] +=
              p * pv[j * H + off + c];
        }
      }
    }
  }

  Tensor tq = q, tk = k, tv = v;
  return make_result(
      std::move(out), q.shape(), {q, k, v},
      [tq, tk, tv, heads, d, T, H, inv_sqrt_d,
       probs = std::move(probs)](Node& res) mutable {
        const float* g = res.grad.data();
        const float* pq = tq.data();
        const float* pk = tk.data();
        const float* pv = tv.data();
        float* dq = tq.requires_grad() ? tq.grad() : nullptr;
        float* dk = tk.requires_grad() ? tk.grad() : nullptr;
        float* dv = tv.requires_grad() ? tv.grad() : nullptr;

        std::vector<float> dp(static_cast<std::size_t>(T), 0.0f);
        for (int hh = 0; hh < heads; ++hh) {
          const int off = hh * d;
          const float* pr = &probs[static_cast<std::size_t>(hh) * T * T];
          for (int i = 0; i < T; ++i) {
            // dP(i, j) = dOut(i) . V(j)
            float row_dot = 0.0f;  // sum_j P(i,j) * dP(i,j)
            for (int j = 0; j <= i; ++j) {
              const float p = pr[i * T + j];
              if (p == 0.0f) {
                dp[static_cast<std::size_t>(j)] = 0.0f;
                continue;
              }
              float acc = 0.0f;
              for (int c = 0; c < d; ++c) {
                acc += g[i * H + off + c] * pv[j * H + off + c];
              }
              dp[static_cast<std::size_t>(j)] = acc;
              row_dot += p * acc;
            }
            for (int j = 0; j <= i; ++j) {
              const float p = pr[i * T + j];
              if (p == 0.0f) continue;
              const float ds = p * (dp[static_cast<std::size_t>(j)] - row_dot) *
                               inv_sqrt_d;
              if (dq != nullptr) {
                for (int c = 0; c < d; ++c) {
                  dq[i * H + off + c] += ds * pk[j * H + off + c];
                }
              }
              if (dk != nullptr) {
                for (int c = 0; c < d; ++c) {
                  dk[j * H + off + c] += ds * pq[i * H + off + c];
                }
              }
              if (dv != nullptr) {
                for (int c = 0; c < d; ++c) {
                  dv[j * H + off + c] += p * g[i * H + off + c];
                }
              }
            }
          }
        }
      });
}

Tensor cross_entropy(const Tensor& logits, const std::vector<int>& targets) {
  assert(logits.shape().size() == 2);
  const int T = logits.dim(0), V = logits.dim(1);
  assert(static_cast<int>(targets.size()) == T);
  prep(logits);

  std::vector<float> probs(static_cast<std::size_t>(T) * V);
  const float* pl = logits.data();
  double loss = 0.0;
  for (int i = 0; i < T; ++i) {
    const float* row = &pl[static_cast<std::size_t>(i) * V];
    float maxv = row[0];
    for (int j = 1; j < V; ++j) maxv = std::max(maxv, row[j]);
    float denom = 0.0f;
    for (int j = 0; j < V; ++j) {
      probs[static_cast<std::size_t>(i) * V + j] = std::exp(row[j] - maxv);
      denom += probs[static_cast<std::size_t>(i) * V + j];
    }
    for (int j = 0; j < V; ++j) probs[static_cast<std::size_t>(i) * V + j] /= denom;
    loss -= std::log(
        std::max(probs[static_cast<std::size_t>(i) * V + targets[static_cast<std::size_t>(i)]],
                 1e-12f));
  }
  loss /= T;

  Tensor tl = logits;
  return make_result(
      {static_cast<float>(loss)}, {1}, {logits},
      [tl, targets, T, V, probs = std::move(probs)](Node& res) mutable {
        if (!tl.requires_grad()) return;
        const float go = res.grad[0];
        float* dl = tl.grad();
        for (int i = 0; i < T; ++i) {
          for (int j = 0; j < V; ++j) {
            const std::size_t idx = static_cast<std::size_t>(i) * V + j;
            float d = probs[idx];
            if (j == targets[static_cast<std::size_t>(i)]) d -= 1.0f;
            dl[idx] += go * d / static_cast<float>(T);
          }
        }
      });
}

Tensor sum(const Tensor& a) {
  prep(a);
  double total = 0.0;
  for (float v : a.node()->value) total += v;
  Tensor ta = a;
  return make_result({static_cast<float>(total)}, {1}, {a},
                     [ta](Node& res) mutable {
                       if (!ta.requires_grad()) return;
                       float* da = ta.grad();
                       const float g = res.grad[0];
                       for (std::size_t i = 0; i < ta.node()->value.size(); ++i) {
                         da[i] += g;
                       }
                     });
}

Tensor add_n(const std::vector<Tensor>& parts) {
  assert(!parts.empty());
  for (const auto& p : parts) {
    assert(p.shape() == parts.front().shape());
    prep(p);
  }
  std::vector<float> out(parts.front().node()->value);
  for (std::size_t k = 1; k < parts.size(); ++k) {
    const float* src = parts[k].data();
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += src[i];
  }
  std::vector<Tensor> owned = parts;
  return make_result(std::move(out), parts.front().shape(), parts,
                     [owned](Node& res) mutable {
                       const float* g = res.grad.data();
                       for (auto& p : owned) {
                         if (!p.requires_grad()) continue;
                         float* dp = p.grad();
                         for (std::size_t i = 0; i < res.value.size(); ++i) {
                           dp[i] += g[i];
                         }
                       }
                     });
}

}  // namespace ms::optim
