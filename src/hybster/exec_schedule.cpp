#include "hybster/exec_schedule.hpp"

#include <string>
#include <unordered_map>

#include "sim/lanes.hpp"

namespace troxy::hybster {

ExecPlan plan_execution(const Batch& batch, const Service& service,
                        std::size_t lanes) {
    const std::size_t n = batch.requests.size();
    ExecPlan plan;
    plan.class_of.assign(n, ExecPlan::kNoClass);
    if (lanes == 0) lanes = 1;

    // Pass 1: partition by the primary state partition. Members sharing
    // a state_key form one conflict class (a sequential chain in batch
    // order); classes are numbered by first appearance. extra_keys are
    // *invalidation* targets (a mutation's write-set closure over cache
    // partitions such as scan prefixes) and deliberately do not create
    // execution conflicts — two writes under a common scan prefix still
    // commute at the exact-key level. Iterating in batch order with a
    // deterministic classify() makes the partition identical on all
    // correct replicas.
    std::unordered_map<std::string, std::size_t> class_of_key;
    std::vector<sim::Duration> class_cost;
    std::vector<std::size_t> class_members;
    for (std::size_t i = 0; i < n; ++i) {
        const Request& request = batch.requests[i];
        if (request.flags & Request::kFlagNoop) continue;
        const sim::Duration cost = service.execution_cost(request.payload());
        RequestInfo info = service.classify(request.payload());
        auto [it, inserted] = class_of_key.try_emplace(
            std::move(info.state_key), class_cost.size());
        if (inserted) {
            class_cost.push_back(sim::Duration{0});
            class_members.push_back(0);
        }
        plan.class_of[i] = it->second;
        class_cost[it->second] += cost;
        ++class_members[it->second];
        plan.serial += cost;
    }
    plan.conflict_classes = class_cost.size();
    for (const std::size_t members : class_members) {
        if (members > 1) plan.conflict_stalls += members - 1;
    }

    // Pass 2: greedy list scheduling of whole classes, in first-
    // appearance order, onto the earliest-free lane.
    sim::LaneSchedule schedule(lanes);
    for (const sim::Duration chain : class_cost) schedule.add(chain);
    plan.makespan = schedule.makespan();
    plan.lanes_used = schedule.lanes_used();
    return plan;
}

}  // namespace troxy::hybster
