#include "graph/schedule.h"

#include "kernels/kernel.h"
#include "util/logging.h"

namespace vtrain {

size_t
OpTopology::approxBytes() const
{
    return sizeof(OpTopology) + ops.size() * sizeof(Op) +
           (child_offsets.size() + child_list.size() + in_degree.size()) *
               sizeof(int32_t);
}

size_t
ReplaySchedule::approxBytes() const
{
    return sizeof(ReplaySchedule) +
           (order.size() + lane.size() + busy_lane.size() +
            child_offsets.size() + child_list.size()) *
               sizeof(int32_t) +
           tag.size() * sizeof(uint8_t);
}

size_t
ReplaySchedule::predictBytes(size_t num_tasks, size_t num_edges)
{
    const size_t n = num_tasks;
    return sizeof(ReplaySchedule) +
           (3 * n + (n + 1) + num_edges) * sizeof(int32_t) +
           n * sizeof(uint8_t);
}

std::shared_ptr<const ReplaySchedule>
ReplaySchedule::build(const OpTopology &ops)
{
    const size_t n_ops = ops.numOps();
    const size_t n = ops.num_tasks;
    auto schedule = std::make_shared<ReplaySchedule>();
    schedule->num_devices = ops.num_devices;

    // Task ids follow TaskGraph::expand: operator i's kernels are
    // first[i] .. first[i+1]-1.
    std::vector<int32_t> first(n_ops + 1, 0);
    for (size_t i = 0; i < n_ops; ++i)
        first[i + 1] = first[i] + ops.ops[i].kernels;

    std::vector<int32_t> &order = schedule->order;
    std::vector<int32_t> op_at; // operator of each position
    order.reserve(n);
    op_at.reserve(n);
    schedule->lane.reserve(n);
    schedule->busy_lane.reserve(n);
    schedule->tag.reserve(n);
    const size_t ordered = walkOpFifo<0>(
        ops, [&](int32_t op, int32_t k, const OpTopology::Op &rec,
                 const double *, double *) {
            order.push_back(first[op] + k);
            op_at.push_back(op);
            schedule->lane.push_back(rec.lane);
            schedule->busy_lane.push_back(rec.busy_lane);
            schedule->tag.push_back(rec.tag);
        });
    VTRAIN_CHECK(ordered == n, "schedule deadlock: ordered ", ordered,
                 " of ", n, " tasks (cyclic dependency?)");

    std::vector<int32_t> pos_of(n);
    for (size_t i = 0; i < n; ++i)
        pos_of[order[i]] = static_cast<int32_t>(i);

    // Children in expand's edge order: a kernel's chain successor, or
    // after an operator's last kernel its children's first kernels.
    schedule->child_offsets.assign(n + 1, 0);
    schedule->child_list.reserve(ops.numTaskEdges());
    for (size_t i = 0; i < n; ++i) {
        const int32_t u = order[i];
        const int32_t op = op_at[i];
        if (u + 1 < first[op + 1]) {
            schedule->child_list.push_back(pos_of[u + 1]);
        } else {
            for (int32_t e = ops.child_offsets[op];
                 e < ops.child_offsets[op + 1]; ++e)
                schedule->child_list.push_back(
                    pos_of[first[ops.child_list[e]]]);
        }
        schedule->child_offsets[i + 1] =
            static_cast<int32_t>(schedule->child_list.size());
    }
    return schedule;
}

std::shared_ptr<const ReplaySchedule>
ReplaySchedule::build(const TaskGraph::Topology &topo)
{
    const size_t n = topo.meta.size();
    const int32_t *const child_offsets = topo.child_offsets.data();
    const int32_t *const child_list = topo.child_list.data();

    auto schedule = std::make_shared<ReplaySchedule>();
    schedule->num_devices = topo.num_devices;

    // The queue algorithm, durations ignored: the resulting pop order
    // is exactly the order every timed run visits tasks in.
    std::vector<int32_t> ref = topo.in_degree;
    std::vector<int32_t> &order = schedule->order;
    order.reserve(n);
    for (size_t i = 0; i < n; ++i)
        if (ref[i] == 0)
            order.push_back(static_cast<int32_t>(i));
    for (size_t head = 0; head < order.size(); ++head) {
        const int32_t u = order[head];
        for (const int32_t *c = child_list + child_offsets[u],
                           *const c_end =
                               child_list + child_offsets[u + 1];
             c != c_end; ++c)
            if (--ref[*c] == 0)
                order.push_back(*c);
    }
    VTRAIN_CHECK(order.size() == n,
                 "schedule deadlock: ordered ", order.size(), " of ", n,
                 " tasks (cyclic dependency?)");

    // Inverse permutation: original task id -> schedule position.
    std::vector<int32_t> pos_of(n);
    for (size_t i = 0; i < n; ++i)
        pos_of[order[i]] = static_cast<int32_t>(i);

    // Metadata and CSR children, permuted to schedule order.
    schedule->lane.resize(n);
    schedule->busy_lane.resize(n);
    schedule->tag.resize(n);
    schedule->child_offsets.assign(n + 1, 0);
    schedule->child_list.resize(topo.child_list.size());
    int32_t cursor = 0;
    for (size_t i = 0; i < n; ++i) {
        const int32_t u = order[i];
        const TaskGraph::TaskMeta meta = topo.meta[u];
        schedule->lane[i] =
            meta.device * kNumStreams + static_cast<int32_t>(meta.stream);
        schedule->busy_lane[i] =
            meta.device * 2 + (meta.stream != StreamKind::Compute);
        schedule->tag[i] = static_cast<uint8_t>(meta.tag);
        for (const int32_t *c = child_list + child_offsets[u],
                           *const c_end =
                               child_list + child_offsets[u + 1];
             c != c_end; ++c)
            schedule->child_list[cursor++] = pos_of[*c];
        schedule->child_offsets[i + 1] = cursor;
    }
    return schedule;
}

} // namespace vtrain
