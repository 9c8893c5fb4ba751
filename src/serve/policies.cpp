#include "serve/policies.h"

#include <algorithm>
#include <stdexcept>

namespace eprons {

AdmissionDecision TokenBucketPolicy::decide(const AdmissionContext& ctx) {
  // Refill from the configured rate, or track the harness's sustainable
  // rate when the config leaves it at 0 (auto). Queries per us.
  const double rate = (config_.bucket_rate_qps > 0.0
                           ? config_.bucket_rate_qps
                           : ctx.sustainable_rate_qps) /
                      1.0e6;
  const SimTime dt = ctx.now - last_refill_;
  if (dt > 0.0) {
    tokens_ = std::min(config_.bucket_burst, tokens_ + rate * dt);
    last_refill_ = ctx.now;
  }
  if (config_.queue_bound > 0 && ctx.queued >= config_.queue_bound) {
    return AdmissionDecision::Shed;
  }
  if (tokens_ < 1.0) return AdmissionDecision::Shed;
  tokens_ -= 1.0;
  return AdmissionDecision::Admit;
}

AdmissionDecision SlaAwareAdmissionPolicy::decide(const AdmissionContext& ctx) {
  if (ctx.plan == nullptr || !ctx.plan->have_plan ||
      ctx.sustainable_rate_qps <= 0.0) {
    return AdmissionDecision::Admit;  // nothing to consult yet
  }
  // Expected wait for this query: the backlog ahead of it drained at the
  // sustainable rate. Compare against what the planner left for the server
  // side of the SLA.
  const double backlog = static_cast<double>(ctx.inflight + ctx.queued + 1);
  const SimTime expected_wait =
      backlog / (ctx.sustainable_rate_qps / 1.0e6);
  double margin = config_.sla_margin;
  if (!ctx.plan->feasible) margin *= 0.5;
  const SimTime budget = ctx.plan->effective_server_budget > 0.0
                             ? ctx.plan->effective_server_budget
                             : ctx.plan->latency_constraint;
  return expected_wait > margin * budget ? AdmissionDecision::Shed
                                         : AdmissionDecision::Admit;
}

bool DeadlineShedPolicy::should_shed(const ShedContext& ctx) {
  const SimTime constraint =
      ctx.plan != nullptr && ctx.plan->latency_constraint > 0.0
          ? ctx.plan->latency_constraint
          : ms(30.0);
  return ctx.waited > config_.deadline_fraction * constraint;
}

std::unique_ptr<AdmissionPolicy> make_admission_policy(
    const std::string& name, const PolicyConfig& config) {
  if (name == "always") return std::make_unique<AlwaysAdmitPolicy>();
  if (name == "token-bucket") {
    return std::make_unique<TokenBucketPolicy>(config);
  }
  if (name == "sla-aware") {
    return std::make_unique<SlaAwareAdmissionPolicy>(config);
  }
  throw std::invalid_argument("unknown admission policy '" + name +
                              "' (built-ins: " + admission_policy_names() +
                              ")");
}

std::unique_ptr<ShedPolicy> make_shed_policy(const std::string& name,
                                             const PolicyConfig& config) {
  if (name == "never") return std::make_unique<NeverShedPolicy>();
  if (name == "deadline") return std::make_unique<DeadlineShedPolicy>(config);
  throw std::invalid_argument("unknown shed policy '" + name +
                              "' (built-ins: " + shed_policy_names() + ")");
}

const char* admission_policy_names() {
  return "always, token-bucket, sla-aware";
}
const char* shed_policy_names() { return "never, deadline"; }

}  // namespace eprons
