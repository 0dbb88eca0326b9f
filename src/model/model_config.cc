#include "model/model_config.h"

#include <cmath>
#include <cstdio>

#include "util/logging.h"

namespace vtrain {

void
ModelConfig::validate() const
{
    VTRAIN_REQUIRE(hidden_size > 0, "hidden size must be positive");
    VTRAIN_REQUIRE(num_layers > 0, "layer count must be positive");
    VTRAIN_REQUIRE(seq_length > 0, "sequence length must be positive");
    VTRAIN_REQUIRE(num_heads > 0, "head count must be positive");
    VTRAIN_REQUIRE(vocab_size > 0, "vocabulary size must be positive");
    VTRAIN_REQUIRE(hidden_size % num_heads == 0,
                   "hidden size ", hidden_size,
                   " must be divisible by head count ", num_heads);
}

double
ModelConfig::parametersPerLayer() const
{
    const double h = static_cast<double>(hidden_size);
    // QKV + attention output projection + FFN (two FCs) + 2 LayerNorms.
    const double attn = (3.0 * h * h + 3.0 * h) + (h * h + h);
    const double ffn = (4.0 * h * h + 4.0 * h) + (4.0 * h * h + h);
    const double norms = 4.0 * h;
    return attn + ffn + norms;
}

double
ModelConfig::numParameters() const
{
    const double h = static_cast<double>(hidden_size);
    const double embeddings =
        static_cast<double>(vocab_size) * h +
        static_cast<double>(seq_length) * h;
    const double final_norm = 2.0 * h;
    return static_cast<double>(num_layers) * parametersPerLayer() +
           embeddings + final_norm;
}

double
ModelConfig::modelFlops(double tokens) const
{
    const double h = static_cast<double>(hidden_size);
    const double L = static_cast<double>(num_layers);
    const double s = static_cast<double>(seq_length);
    const double V = static_cast<double>(vocab_size);
    return 72.0 * tokens * L * h * h *
           (1.0 + s / (6.0 * h) + V / (12.0 * L * h));
}

double
ModelConfig::hardwareFlops(double tokens, bool activation_recompute) const
{
    // With full recomputation the forward pass runs twice: factor
    // 96/72 = 4/3 over the model FLOPs.
    const double factor = activation_recompute ? 96.0 / 72.0 : 1.0;
    return factor * modelFlops(tokens);
}

std::string
ModelConfig::brief() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "h=%lld,L=%lld,s=%lld,n=%lld",
                  static_cast<long long>(hidden_size),
                  static_cast<long long>(num_layers),
                  static_cast<long long>(seq_length),
                  static_cast<long long>(num_heads));
    return buf;
}

ModelConfig
makeModel(int64_t hidden_size, int64_t num_layers, int64_t num_heads,
          int64_t seq_length, int64_t vocab_size)
{
    ModelConfig m;
    m.hidden_size = hidden_size;
    m.num_layers = num_layers;
    m.num_heads = num_heads;
    m.seq_length = seq_length;
    m.vocab_size = vocab_size;
    m.validate();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "llm-%.1fB", m.numParameters() / 1e9);
    m.name = buf;
    return m;
}

} // namespace vtrain
