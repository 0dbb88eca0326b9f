/**
 * @file
 * Decoder-only transformer LLM description and analytic quantities.
 *
 * Mirrors Sec. II-A of the paper: an LLM is characterized by hidden
 * size (h), number of decoder layers (L), maximum sequence length (s),
 * and number of attention heads (n), plus the vocabulary size.  The
 * analytic parameter/FLOP formulas follow Megatron-LM (Narayanan et
 * al., SC'21), the modelled training framework.
 */
#ifndef VTRAIN_MODEL_MODEL_CONFIG_H
#define VTRAIN_MODEL_MODEL_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "util/hash.h"

namespace vtrain {

/** Hyperparameters of a decoder-only transformer LLM. */
struct ModelConfig {
    std::string name = "unnamed";

    int64_t hidden_size = 0;      //!< h
    int64_t num_layers = 0;       //!< L
    int64_t seq_length = 2048;    //!< s
    int64_t num_heads = 0;        //!< n
    int64_t vocab_size = 51200;   //!< V (GPT-2 BPE padded, Megatron)

    /** @return h / n, the per-head dimension. */
    int64_t headDim() const { return hidden_size / num_heads; }

    /** Validates the hyperparameters (h % n == 0, positive, ...). */
    void validate() const;

    /**
     * Exact trainable parameter count.
     *
     * Per decoder layer: QKV (3h^2 + 3h), attention projection
     * (h^2 + h), FC1 (4h^2 + 4h), FC2 (4h^2 + h), two LayerNorms
     * (4h); plus word embeddings (V*h, shared with the LM head),
     * positional embeddings (s*h) and the final LayerNorm (2h).
     */
    double numParameters() const;

    /** Parameter count of one decoder layer. */
    double parametersPerLayer() const;

    /**
     * Model FLOPs to process `tokens` tokens (forward + backward),
     * i.e. the useful work used for GPU-utilization accounting:
     *   72 * tokens * L * h^2 * (1 + s/(6h) + V/(12*L*h)).
     */
    double modelFlops(double tokens) const;

    /**
     * Hardware FLOPs actually executed for `tokens` tokens when full
     * activation recomputation is enabled (the extra forward pass
     * raises the factor from 72 to 96, per Megatron-LM):
     */
    double hardwareFlops(double tokens, bool activation_recompute) const;

    /** A short "h=..,L=..,s=..,n=.." descriptor. */
    std::string brief() const;

    bool operator==(const ModelConfig &) const = default;
};

/** ModelConfig's wire keys and fingerprint order (see util/hash.h). */
template <typename Visit>
void
fields(Visit &&visit, const ModelConfig *)
{
    visit("name", &ModelConfig::name);
    visit("hidden_size", &ModelConfig::hidden_size);
    visit("num_layers", &ModelConfig::num_layers);
    visit("seq_length", &ModelConfig::seq_length);
    visit("num_heads", &ModelConfig::num_heads);
    visit("vocab_size", &ModelConfig::vocab_size);
}

/**
 * Builds a model from (h, L, n) with defaults for s and V, deriving a
 * human-readable name from the resulting parameter count.
 */
ModelConfig makeModel(int64_t hidden_size, int64_t num_layers,
                      int64_t num_heads, int64_t seq_length = 2048,
                      int64_t vocab_size = 51200);

} // namespace vtrain

/** Enables ModelConfig keys in std::unordered_map / std::unordered_set. */
template <> struct std::hash<vtrain::ModelConfig> {
    size_t operator()(const vtrain::ModelConfig &m) const
    {
        return static_cast<size_t>(vtrain::hashValue(m));
    }
};

#endif // VTRAIN_MODEL_MODEL_CONFIG_H
