// PhoneBit tests — shared fixtures, generators and the bit-exactness
// comparators used by every differential test (compiled vs reference,
// fused vs unfused, loaded artifact vs fresh compile, batch vs serial).
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bitpack/pack.hpp"
#include "common/rng.hpp"
#include "core/phonebit.hpp"
#include "oclsim/runtime.hpp"
#include "serve/fleet.hpp"
#include "tensor/tensor.hpp"

namespace phonebit::testing {

/// Bit-exact float-tensor equality: same shape, same layout, identical
/// bytes (stricter than allclose(.., 0.0f): distinguishes -0/+0 and never
/// accepts NaN drift). Storage ownership is irrelevant — a borrowed slab
/// view compares equal to an owning copy with the same contents.
inline ::testing::AssertionResult expect_bitexact(const FloatTensor& a,
                                                  const FloatTensor& b) {
  if (!(a.shape() == b.shape())) {
    return ::testing::AssertionFailure()
           << "shapes differ: " << a.shape().str() << " vs "
           << b.shape().str();
  }
  if (a.layout() != b.layout()) {
    return ::testing::AssertionFailure() << "layouts differ";
  }
  if (std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.bytes())) !=
      0) {
    return ::testing::AssertionFailure()
           << "float tensors differ (max abs diff " << max_abs_diff(a, b)
           << ")";
  }
  return ::testing::AssertionSuccess();
}

/// Bit-exact blob equality: same variant alternative, same shape, identical
/// packed words / bytes / floats.
inline ::testing::AssertionResult expect_bitexact(const core::Blob& a,
                                                  const core::Blob& b) {
  if (a.index() != b.index()) {
    return ::testing::AssertionFailure() << "blob kinds differ";
  }
  if (const auto* fa = std::get_if<FloatTensor>(&a)) {
    return expect_bitexact(*fa, std::get<FloatTensor>(b));
  }
  if (const auto* ua = std::get_if<U8Tensor>(&a)) {
    const auto& ub = std::get<U8Tensor>(b);
    if (!(ua->shape() == ub.shape())) {
      return ::testing::AssertionFailure()
             << "u8 shapes differ: " << ua->shape().str() << " vs "
             << ub.shape().str();
    }
    if (std::memcmp(ua->data(), ub.data(),
                    static_cast<std::size_t>(ua->bytes())) != 0) {
      return ::testing::AssertionFailure() << "u8 tensors differ";
    }
    return ::testing::AssertionSuccess();
  }
  const auto& pa = std::get<bitpack::PackedTensor>(a);
  const auto& pb = std::get<bitpack::PackedTensor>(b);
  if (!(pa == pb)) {
    return ::testing::AssertionFailure()
           << "packed tensors differ (" << pa.shape().str() << " vs "
           << pb.shape().str() << ")";
  }
  return ::testing::AssertionSuccess();
}

/// Bit-exact forward equality — the comparator behind every differential
/// suite: two ForwardResults that claim to be the SAME computation must
/// agree on the output bits AND on the deterministic modeled device time
/// (a modeled-time drift means a different kernel schedule ran, even if
/// the bits happen to match).
inline ::testing::AssertionResult expect_bitexact(
    const core::ForwardResult& a, const core::ForwardResult& b) {
  const ::testing::AssertionResult out = expect_bitexact(a.output, b.output);
  if (!out) return out;
  const double drift = a.modeled_ms - b.modeled_ms;
  if (drift > 1e-9 || drift < -1e-9) {
    return ::testing::AssertionFailure()
           << "modeled time drifted: " << a.modeled_ms << " vs "
           << b.modeled_ms << " ms";
  }
  return ::testing::AssertionSuccess();
}

/// Compiles `net` under `opts` for `input`'s descriptor and runs the plan
/// once on `session` — the one-shot compile + run of a test that runs a
/// network (often a one-layer one, built with Network::emplace) once.
inline core::ForwardResult compile_and_run(
    core::ExecSession& session, const core::Network& net,
    const core::Blob& input, const core::EngineOptions& opts = {}) {
  return net.compile(opts, core::describe_blob(input)).run(session, input);
}

/// A file path under the gtest temp dir that is unique to this process.
/// ctest runs test_fleet and test_cascade twice at once (the full binary
/// and its `*_soak` filter), so a fixed name would let one process remove
/// or overwrite an artifact the other is about to load.
inline std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "phonebit_" +
         std::to_string(::getpid()) + "_" + name;
}

/// Shared simulated device (SD855) for tests; host threads capped so unit
/// tests stay cheap to spawn.
inline std::shared_ptr<oclsim::Device> test_device() {
  static auto device = std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855(), 4);
  return device;
}

/// Random ±1-valued float tensor (the binary activation domain).
inline FloatTensor random_sign_tensor(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  FloatTensor t(shape, Layout::kNHWC);
  for (std::int64_t i = 0; i < t.elems(); ++i) t.data()[i] = rng.sign();
  return t;
}

/// Random float tensor ~N(0,1).
inline FloatTensor random_float_tensor(const Shape& shape,
                                       std::uint64_t seed) {
  Rng rng(seed);
  FloatTensor t(shape, Layout::kNHWC);
  t.fill_random(rng);
  return t;
}

/// Random batch-norm parameter vector with both gamma signs present.
inline std::vector<core::BatchNormParams> random_bn(std::int64_t channels,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<core::BatchNormParams> bn;
  for (std::int64_t c = 0; c < channels; ++c) {
    core::BatchNormParams p;
    p.gamma = rng.uniform(0.3f, 1.5f) * (rng.uniform() < 0.3f ? -1.0f : 1.0f);
    p.beta = rng.normal() * 0.5f;
    p.mu = rng.normal() * 3.0f;
    p.sigma = rng.uniform(0.5f, 2.0f);
    bn.push_back(p);
  }
  return bn;
}

/// Batch norm whose folded thresholds land exactly on values the conv sums
/// `x1` (N, H, W, C_out, before BN) reach, plus infinite thresholds: by
/// channel c % 8, lanes 0, 1, 6 and 7 take xi = x1 at a random pixel,
/// lanes 2 and 3 xi = +inf, lanes 4 and 5 xi = -inf. Odd channels get a
/// negative gamma, so every kind of threshold meets both gamma signs. beta
/// is 0 and there is no bias, so the fold leaves xi = mu exactly.
inline std::vector<core::BatchNormParams> tie_bn(const FloatTensor& x1,
                                                 std::uint64_t seed) {
  Rng rng(seed);
  const Shape& s = x1.shape();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<core::BatchNormParams> bn;
  for (std::int64_t c = 0; c < s.c; ++c) {
    core::BatchNormParams p;
    p.gamma = rng.uniform(0.5f, 1.5f) * (c % 2 == 0 ? 1.0f : -1.0f);
    p.beta = 0.0f;
    p.sigma = rng.uniform(0.5f, 2.0f);
    const std::int64_t lane = c % 8;
    if (lane == 2 || lane == 3) {
      p.mu = inf;
    } else if (lane == 4 || lane == 5) {
      p.mu = -inf;
    } else {
      const auto pick = [&rng](std::int64_t extent) {
        return static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(extent)));
      };
      p.mu = x1(pick(s.n), pick(s.h), pick(s.w), c);
    }
    bn.push_back(p);
  }
  return bn;
}

inline std::vector<float> random_bias(std::int64_t channels,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> b(static_cast<std::size_t>(channels));
  for (auto& x : b) x = rng.normal() * 0.2f;
  return b;
}

/// Expands a packed tensor back to floats in {-1, +1}.
inline FloatTensor unpack_signs(const bitpack::PackedTensor& p) {
  const Shape& s = p.shape();
  FloatTensor out(s, Layout::kNHWC);
  for (std::int64_t n = 0; n < s.n; ++n)
    for (std::int64_t h = 0; h < s.h; ++h)
      for (std::int64_t w = 0; w < s.w; ++w)
        for (std::int64_t c = 0; c < s.c; ++c)
          out(n, h, w, c) = p.get(n, h, w, c) ? 1.0f : -1.0f;
  return out;
}

/// Expands a packed tensor and compares with a ±1 float reference.
inline bool packed_equals_signs(const bitpack::PackedTensor& packed,
                                const FloatTensor& ref) {
  const FloatTensor got = unpack_signs(packed);
  return allclose(got, ref, 0.0f);
}

/// Arrival times of a serving trace, in submission order (capture them
/// before the trace moves into a run).
inline std::vector<double> arrivals_of(
    const std::vector<serve::Request>& workload) {
  std::vector<double> t;
  for (const serve::Request& r : workload) t.push_back(r.arrival_ms);
  return t;
}

/// The serving invariants every soak keeps, on every entry point's
/// summary (`arrivals` from arrivals_of(the trace), `lanes` per shard):
///   - exactly one status per request, its last stage record's: the status
///     counts add up to `requests` and match a recount of the requests;
///   - 0 <= queue_ms <= latency_ms for every request and stage record;
///   - every view's rows add up to the stage records it groups, per status
///     (to `requests` on a one-stage run; shard rows hold placed records);
///   - stage_assignment[s][si] counts the stage-s records placed on si;
///   - no lane is double-booked: per shard, the busy intervals
///     [arrival + queue, arrival + latency) never overlap more than
///     `lanes` deep; stage s+1 arrives when stage s completes.
inline ::testing::AssertionResult serving_invariants(
    const serve::ServerSummary& s, const std::vector<double>& arrivals,
    int lanes) {
  constexpr double kEps = 1e-9;  // far below any modeled service time
  if (static_cast<int>(s.results.size()) != s.requests ||
      arrivals.size() != s.results.size()) {
    return ::testing::AssertionFailure()
           << s.results.size() << " results for " << s.requests
           << " requests and " << arrivals.size() << " arrivals";
  }
  using Counts = std::vector<int>;  // records per status: ok, shed, ddl, failed
  const auto row_counts = [](const std::vector<serve::SummaryRow>& rows) {
    Counts c(5, 0);  // [4] = rows' record total
    for (const serve::SummaryRow& r : rows) {
      c[0] += r.ok, c[1] += r.shed, c[2] += r.deadline_exceeded;
      c[3] += r.failed, c[4] += r.requests;
    }
    return c;
  };
  Counts requests(4, 0), records(5, 0), placed(5, 0);
  std::vector<std::vector<int>> assignment;  // s.stage_assignment's shape
  for (const std::vector<int>& row : s.stage_assignment) {
    assignment.emplace_back(row.size(), 0);
  }
  std::vector<std::pair<int, std::pair<double, int>>> edges;  // shard, t, ±1
  for (std::size_t i = 0; i < s.results.size(); ++i) {
    const serve::RequestResult& rr = s.results[i];
    const int c = static_cast<int>(rr.status.code);
    if (c < 0 || c > 3 || rr.stages.empty() ||
        rr.stages.back().status != rr.status) {
      return ::testing::AssertionFailure()
             << "request " << i << ": status " << c << " is not its last "
             << "of " << rr.stages.size() << " stage records";
    }
    ++requests[static_cast<std::size_t>(c)];
    if (rr.queue_ms < 0.0 || rr.queue_ms > rr.latency_ms + kEps) {
      return ::testing::AssertionFailure()
             << "request " << i << ": queue " << rr.queue_ms
             << " ms outside [0, latency " << rr.latency_ms << " ms]";
    }
    double t = std::max(arrivals[i], 0.0);
    for (std::size_t k = 0; k < rr.stages.size(); ++k) {
      const serve::StageOutcome& so = rr.stages[k];
      const auto code = static_cast<std::size_t>(so.status.code);
      ++records[code], ++records[4];
      if (so.queue_ms < 0.0 || so.queue_ms > so.latency_ms + kEps) {
        return ::testing::AssertionFailure()
               << "request " << i << ": stage " << k << " queue "
               << so.queue_ms << " ms outside [0, latency " << so.latency_ms
               << " ms]";
      }
      const double begin = t + so.queue_ms + kEps;
      const double end = t + so.latency_ms - kEps;
      t += so.latency_ms;
      if (so.shard < 0) continue;  // never placed
      ++placed[code], ++placed[4];
      const auto si = static_cast<std::size_t>(so.shard);
      if (k >= assignment.size() || si >= assignment[k].size()) {
        return ::testing::AssertionFailure()
               << "request " << i << ": stage " << k << " on shard "
               << so.shard << " is outside stage_assignment";
      }
      ++assignment[k][si];
      if (end <= begin) continue;  // never held a lane
      edges.push_back({so.shard, {begin, +1}});
      edges.push_back({so.shard, {end, -1}});
    }
  }
  if (requests != Counts{s.ok, s.shed, s.deadline_exceeded, s.failed} ||
      s.ok + s.shed + s.deadline_exceeded + s.failed != s.requests ||
      s.ok != s.gated_out + s.full_runs) {
    return ::testing::AssertionFailure()
           << "status accounting does not close: ok " << s.ok << " shed "
           << s.shed << " deadline " << s.deadline_exceeded << " failed "
           << s.failed << " of " << s.requests << " requests";
  }
  if (row_counts(s.models) != records || row_counts(s.stages) != records ||
      row_counts(s.shards) != placed ||
      (s.stages.size() == 1 && records[4] != s.requests)) {
    return ::testing::AssertionFailure()
           << "a view's rows do not add up to the " << records[4]
           << " stage records (" << placed[4] << " placed)";
  }
  if (assignment != s.stage_assignment) {
    return ::testing::AssertionFailure()
           << "stage_assignment does not count the placed stage records";
  }
  std::sort(edges.begin(), edges.end());  // a release sorts before a claim
  int shard = -1, depth = 0;
  for (const auto& [sh, ev] : edges) {
    if (sh != shard) shard = sh, depth = 0;
    depth += ev.second;
    if (depth > lanes) {
      return ::testing::AssertionFailure()
             << "shard " << sh << " has " << depth << " requests on "
             << lanes << " lanes at t=" << ev.first << " ms";
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace phonebit::testing
