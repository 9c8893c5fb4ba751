// Built-in serving policies (see serve/policy.h for the interfaces).
#pragma once

#include "serve/policy.h"

namespace eprons {

/// Admits everything: the open-loop baseline. Overload shows up as queue
/// growth and dispatch-queue drops rather than sheds.
class AlwaysAdmitPolicy : public AdmissionPolicy {
 public:
  AdmissionDecision decide(const AdmissionContext&) override {
    return AdmissionDecision::Admit;
  }
  const char* name() const override { return "always"; }
};

/// Classic token bucket with a queue bound. Tokens refill at
/// `bucket_rate_qps` (or, when 0, at the harness's sustainable service
/// rate) up to `bucket_burst`;
/// an arrival needing a token from an empty bucket — or arriving to an
/// over-bound dispatch queue — is shed.
class TokenBucketPolicy : public AdmissionPolicy {
 public:
  explicit TokenBucketPolicy(const PolicyConfig& config)
      : config_(config), tokens_(config.bucket_burst) {}

  AdmissionDecision decide(const AdmissionContext& ctx) override;
  const char* name() const override { return "token-bucket"; }

 private:
  PolicyConfig config_;
  double tokens_;
  SimTime last_refill_ = 0.0;
};

/// Sheds when the expected wait (backlog over sustainable rate) would eat
/// the planner's remaining server budget: expected_wait >
/// sla_margin * effective_server_budget. When the planner reports the epoch
/// infeasible, the margin tightens to half — the plan already predicts SLA
/// misses, so the policy sheds earlier to protect admitted queries.
class SlaAwareAdmissionPolicy : public AdmissionPolicy {
 public:
  explicit SlaAwareAdmissionPolicy(const PolicyConfig& config)
      : config_(config) {}

  AdmissionDecision decide(const AdmissionContext& ctx) override;
  const char* name() const override { return "sla-aware"; }

 private:
  PolicyConfig config_;
};

/// Never sheds from the queue.
class NeverShedPolicy : public ShedPolicy {
 public:
  bool should_shed(const ShedContext&) override { return false; }
  const char* name() const override { return "never"; }
};

/// Drops queued queries whose wait already spent `deadline_fraction` of the
/// end-to-end latency constraint — they would miss the SLA anyway, so the
/// servers' time is better spent on fresher queries.
class DeadlineShedPolicy : public ShedPolicy {
 public:
  explicit DeadlineShedPolicy(const PolicyConfig& config) : config_(config) {}

  bool should_shed(const ShedContext& ctx) override;
  const char* name() const override { return "deadline"; }

 private:
  PolicyConfig config_;
};

}  // namespace eprons
