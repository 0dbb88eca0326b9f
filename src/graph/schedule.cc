#include "graph/schedule.h"

#include <limits>

#include "kernels/kernel.h"
#include "util/logging.h"

namespace vtrain {

namespace {

/** Largest value of the run schedule's narrow ids (slots, lanes, run
 *  lengths). */
constexpr size_t kNarrowMax = std::numeric_limits<uint16_t>::max();

/** @return the kernels of `ops` on a communication stream. */
size_t
commTasks(const OpTopology &ops)
{
    size_t tasks = 0;
    for (const OpTopology::Op &op : ops.ops)
        if (op.lane % kNumStreams != static_cast<int>(StreamKind::Compute))
            tasks += op.kernels;
    return tasks;
}

/** A stable counting sort of `values` by `keys` (one key per value,
 *  each below `num_keys`) into `out`; `offsets` receives the
 *  num_keys + 1 bucket bounds. */
template <typename T, typename Key>
void
bucketByKey(const std::vector<T> &values, const std::vector<Key> &keys,
            size_t num_keys, std::vector<int32_t> *offsets,
            std::vector<T> *out)
{
    offsets->assign(num_keys + 1, 0);
    for (const Key key : keys)
        ++(*offsets)[static_cast<size_t>(key) + 1];
    for (size_t k = 0; k < num_keys; ++k)
        (*offsets)[k + 1] += (*offsets)[k];
    std::vector<int32_t> cursor(offsets->begin(), offsets->end() - 1);
    out->assign(values.size(), T{});
    for (size_t i = 0; i < values.size(); ++i)
        (*out)[cursor[static_cast<size_t>(keys[i])]++] = values[i];
}

} // namespace

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
RunSchedule::approxBytes() const
{
    return sizeof(RunSchedule) +
           (lane.size() + length.size() + slot.size() + sum_slot.size()) *
               sizeof(uint16_t) +
           (child_offsets.size() + child_list.size() + sum_offsets.size()) *
               sizeof(int32_t);
}

size_t
RunSchedule::bytesFor(const OpTopology &ops, size_t runs)
{
    const size_t n = ops.num_tasks;
    const size_t accumulators =
        static_cast<size_t>(kNumTaskTags + ops.num_devices);
    const size_t run_edges = ops.numTaskEdges() - (n - runs);
    return sizeof(RunSchedule) +
           (2 * runs + n + n + commTasks(ops)) * sizeof(uint16_t) +
           ((runs + 1) + run_edges + (accumulators + 1)) * sizeof(int32_t);
}

bool
RunSchedule::representable(const OpTopology &ops)
{
    return ops.num_slots <= kNarrowMax + 1 &&
           static_cast<size_t>(ops.num_devices) * kNumStreams <=
               kNarrowMax + 1;
}

std::shared_ptr<const RunSchedule>
RunSchedule::build(const OpTopology &ops)
{
    VTRAIN_CHECK(representable(ops), "run schedule ids overflow: ",
                 ops.num_slots, " slots, ", ops.num_devices, " devices");
    const size_t n_ops = ops.numOps();
    const size_t n = ops.num_tasks;
    const size_t n_lanes =
        static_cast<size_t>(ops.num_devices) * kNumStreams;

    // Kernel 0 of operator c can continue its parent's run only when
    // c has a sole parent p whose sole child is c, on c's lane.  Later
    // kernels always satisfy that against kernel k-1.
    std::vector<int32_t> sole_parent(n_ops, -1);
    for (size_t p = 0; p < n_ops; ++p) {
        const int32_t begin = ops.child_offsets[p];
        if (ops.child_offsets[p + 1] - begin != 1)
            continue;
        const int32_t c = ops.child_list[begin];
        if (ops.in_degree[c] == 1 && ops.ops[c].lane == ops.ops[p].lane)
            sole_parent[c] = static_cast<int32_t>(p);
    }

    // The walk: each pop extends the run its lane popped last when it
    // is that pop's chained successor (the fourth condition: nothing
    // else ran on the lane in between), and heads a new run otherwise.
    std::vector<int32_t> lane_op(n_lanes, -1);  // operator of the last pop
    std::vector<int32_t> lane_run(n_lanes, -1); // run of the last pop
    std::vector<int32_t> op_first_run(n_ops, -1);
    std::vector<int32_t> op_run(n_ops, -1); // run of the latest kernel
    std::vector<uint16_t> run_lane;
    std::vector<uint16_t> run_length;
    std::vector<int32_t> edge_parent; // run-to-run edges
    std::vector<int32_t> edge_child;
    std::vector<int32_t> run_at; // per pop position
    std::vector<uint16_t> slot_at;
    std::vector<uint8_t> tag_at;
    run_at.reserve(n);
    slot_at.reserve(n);
    tag_at.reserve(n);
    const size_t ordered = walkOpFifo<0>(
        ops, [&](int32_t op, int32_t k, const OpTopology::Op &rec,
                 const double *, double *) {
            const int32_t lane = rec.lane;
            const int32_t last = lane_run[lane];
            const bool chained = k > 0 ? lane_op[lane] == op
                                       : sole_parent[op] >= 0 &&
                                             lane_op[lane] == sole_parent[op];
            int32_t run = last;
            if (chained && run_length[last] < kNarrowMax) {
                ++run_length[last];
            } else {
                // A head.  Its operator-edge parents are linked after
                // the walk; a chain continuation links here.
                run = static_cast<int32_t>(run_length.size());
                run_lane.push_back(static_cast<uint16_t>(lane));
                run_length.push_back(1);
                if (k > 0) {
                    edge_parent.push_back(op_run[op]);
                    edge_child.push_back(run);
                }
            }
            lane_op[lane] = op;
            lane_run[lane] = run;
            op_run[op] = run;
            if (k == 0)
                op_first_run[op] = run;
            run_at.push_back(run);
            slot_at.push_back(static_cast<uint16_t>(rec.slot + k));
            tag_at.push_back(rec.tag);
        });
    VTRAIN_CHECK(ordered == n, "schedule deadlock: ordered ", ordered,
                 " of ", n, " tasks (cyclic dependency?)");

    // Operator edges whose ends landed in different runs: an edge
    // inside a run is the chained one (see the file comment).
    for (size_t p = 0; p < n_ops; ++p)
        for (int32_t e = ops.child_offsets[p]; e < ops.child_offsets[p + 1];
             ++e) {
            const int32_t child = op_first_run[ops.child_list[e]];
            if (child != op_run[p]) {
                edge_parent.push_back(op_run[p]);
                edge_child.push_back(child);
            }
        }
    const size_t n_runs = run_length.size();
    VTRAIN_CHECK(edge_child.size() == ops.numTaskEdges() - (n - n_runs),
                 "run schedule lost an edge");

    auto schedule = std::make_shared<RunSchedule>();
    schedule->num_devices = ops.num_devices;
    schedule->num_slots = ops.num_slots;
    schedule->lane.assign(run_lane.begin(), run_lane.end());
    schedule->length.assign(run_length.begin(), run_length.end());

    bucketByKey(edge_child, edge_parent, n_runs, &schedule->child_offsets,
                &schedule->child_list);

    // Members run after run: run ids rise with head pop order, so a
    // stable sort by run keeps each run's members in pop order.
    std::vector<int32_t> member_offsets;
    bucketByKey(slot_at, run_at, n_runs, &member_offsets, &schedule->slot);

    // The pop-order accumulators: every pop adds to its tag, and a
    // pop on a comm stream also to its device's busy_comm.
    std::vector<uint16_t> sum_values(slot_at);
    std::vector<int32_t> sum_keys(tag_at.begin(), tag_at.end());
    for (size_t i = 0; i < n; ++i) {
        const int32_t lane = run_lane[run_at[i]];
        if (lane % kNumStreams == static_cast<int>(StreamKind::Compute))
            continue;
        sum_values.push_back(slot_at[i]);
        sum_keys.push_back(kNumTaskTags + lane / kNumStreams);
    }
    bucketByKey(sum_values, sum_keys,
                static_cast<size_t>(kNumTaskTags + ops.num_devices),
                &schedule->sum_offsets, &schedule->sum_slot);
    return schedule;
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
