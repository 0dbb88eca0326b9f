#include "graph/task_graph.h"

#include "graph/csr.h"
#include "util/logging.h"

namespace vtrain {

TaskTag
taskTagOf(const OpNode &node)
{
    if (node.type == OpNodeType::Compute)
        return TaskTag::Compute;
    switch (node.comm_kind) {
      case CommKind::TpAllReduce:
        return TaskTag::TpAllReduce;
      case CommKind::DpAllReduce:
      case CommKind::DpReduceScatter:
      case CommKind::DpAllGather:
        return TaskTag::DpAllReduce;
      case CommKind::PipeSendRecv:
        return TaskTag::PipeSendRecv;
    }
    VTRAIN_PANIC("unknown comm kind");
}

const std::shared_ptr<const TaskGraph::Topology> &
TaskGraph::emptyTopology()
{
    static const std::shared_ptr<const Topology> empty =
        std::make_shared<const Topology>();
    return empty;
}

int32_t
TaskGraph::Builder::addTask(double duration, int32_t device,
                            StreamKind stream, TaskTag tag)
{
    durations_.push_back(duration);
    metas_.push_back(TaskMeta{device, stream, tag});
    return static_cast<int32_t>(durations_.size() - 1);
}

void
TaskGraph::Builder::addEdge(int32_t u, int32_t v)
{
    VTRAIN_CHECK(u >= 0 && v >= 0 &&
                     u < static_cast<int32_t>(durations_.size()) &&
                     v < static_cast<int32_t>(durations_.size()),
                 "edge endpoints out of range");
    edges_.emplace_back(u, v);
}

TaskGraph
TaskGraph::Builder::build(int num_devices) &&
{
    auto topo = std::make_shared<Topology>();
    topo->num_devices = num_devices;
    topo->meta = std::move(metas_);
    buildCsr(topo->meta.size(), edges_, topo->child_offsets,
             topo->child_list, &topo->in_degree);

    TaskGraph tg;
    tg.durations_ = std::move(durations_);
    tg.topo_ = std::move(topo);
    return tg;
}

TaskGraph
TaskGraph::fromParts(std::vector<double> durations,
                     std::shared_ptr<const Topology> topology)
{
    VTRAIN_CHECK(topology && topology->meta.size() == durations.size(),
                 "durations do not match the topology");
    TaskGraph tg;
    tg.durations_ = std::move(durations);
    tg.topo_ = std::move(topology);
    return tg;
}

TaskGraph
TaskGraph::expand(const OpGraph &ops, OperatorToTaskTable &table,
                  const ExpandOptions &options)
{
    VTRAIN_CHECK(ops.finalized(),
                 "expand requires a finalized operator graph");

    const auto &nodes = ops.nodes();
    const size_t n_ops = nodes.size();
    const auto &descs = ops.descs();

    // Hoist the per-operator table lookups out of the expansion
    // loops: a memoized table returns one stable sequence per
    // interned descriptor, so each distinct operator is hashed once
    // instead of once per node per pass.  The non-memoized ablation
    // keeps the per-node lookups (re-profiling every occurrence is
    // exactly what it measures).
    const bool hoist = table.memoized();
    std::vector<const KernelSequence *> seq_of_desc;
    if (hoist) {
        seq_of_desc.resize(descs.size());
        for (size_t d = 0; d < descs.size(); ++d)
            seq_of_desc[d] = &table.lookup(descs[d]);
    }
    const auto seq_for = [&](const OpNode &node) -> const KernelSequence & {
        return hoist ? *seq_of_desc[node.desc_id]
                     : table.lookup(ops.descOf(node));
    };

    // Pass 1: per-op task counts and total size.
    std::vector<int32_t> first_task(n_ops + 1, 0);
    for (size_t i = 0; i < n_ops; ++i) {
        int32_t count = 1;
        if (nodes[i].type == OpNodeType::Compute &&
            !options.collapse_operators) {
            count =
                static_cast<int32_t>(seq_for(nodes[i]).kernels.size());
        }
        first_task[i + 1] = first_task[i] + count;
    }
    const size_t n_tasks = static_cast<size_t>(first_task[n_ops]);

    auto topo = std::make_shared<Topology>();
    topo->num_devices = ops.numDevices();
    topo->meta.resize(n_tasks);
    std::vector<double> durations(n_tasks);

    // Pass 2: materialize tasks (perturbing per instance).
    for (size_t i = 0; i < n_ops; ++i) {
        const OpNode &node = nodes[i];
        const TaskTag tag = taskTagOf(node);
        const int32_t begin = first_task[i];
        const int32_t end = first_task[i + 1];
        const TaskMeta meta{node.device, node.stream, tag};

        if (node.type == OpNodeType::Comm) {
            double latency = node.comm_latency;
            if (options.perturber)
                latency = options.perturber->perturbComm(latency, node);
            durations[begin] = latency;
            topo->meta[begin] = meta;
            continue;
        }

        const KernelSequence &seq = seq_for(node);
        if (options.collapse_operators) {
            double total = 0.0;
            for (const auto &k : seq.kernels) {
                double d = k.duration;
                if (options.perturber)
                    d = options.perturber->perturbCompute(d, node);
                total += d;
            }
            durations[begin] = total;
            topo->meta[begin] = meta;
        } else {
            for (int32_t k = begin; k < end; ++k) {
                double d = seq.kernels[k - begin].duration;
                if (options.perturber)
                    d = options.perturber->perturbCompute(d, node);
                durations[k] = d;
                topo->meta[k] = meta;
            }
        }
    }

    // Pass 3: edges.  Within an operator, kernels form a chain; an
    // operator edge (a -> b) becomes last-task(a) -> first-task(b).
    const size_t n_edges = n_tasks - n_ops + ops.numEdges();
    std::vector<int32_t> out_degree(n_tasks, 0);
    topo->in_degree.assign(n_tasks, 0);

    auto each_edge = [&](auto &&visit) {
        for (size_t i = 0; i < n_ops; ++i) {
            for (int32_t k = first_task[i]; k + 1 < first_task[i + 1];
                 ++k)
                visit(k, k + 1);
            const int32_t last = first_task[i + 1] - 1;
            for (const OpGraph::NodeId *c = ops.childBegin(
                     static_cast<OpGraph::NodeId>(i));
                 c != ops.childEnd(static_cast<OpGraph::NodeId>(i)); ++c)
                visit(last, first_task[*c]);
        }
    };

    each_edge([&](int32_t from, int32_t to) {
        ++out_degree[from];
        ++topo->in_degree[to];
    });

    topo->child_offsets.assign(n_tasks + 1, 0);
    for (size_t i = 0; i < n_tasks; ++i)
        topo->child_offsets[i + 1] = topo->child_offsets[i] + out_degree[i];
    topo->child_list.resize(n_edges);

    std::vector<int32_t> cursor(topo->child_offsets.begin(),
                                topo->child_offsets.end() - 1);
    each_edge([&](int32_t from, int32_t to) {
        topo->child_list[cursor[from]++] = to;
    });

    TaskGraph tg;
    tg.durations_ = std::move(durations);
    tg.topo_ = std::move(topo);
    return tg;
}

} // namespace vtrain
