#pragma once

#include <iosfwd>
#include <string>

#include "nn/dataset.hpp"
#include "nn/mlp.hpp"

namespace rt::nn {

/// Text (de)serialization of an MLP together with its input scaler.
///
/// Used to cache trained safety-hijacker oracles under data/ so the
/// benchmark binaries do not retrain on every invocation. The format is a
/// line-oriented text format:
///   robotack-nn 1
///   scaler <dim> <means...> <stds...>
///   layers <count>
///   dense <in> <out> <weights row-major...> <bias...>
///   relu
///   dropout <rate>
void save_model(std::ostream& os, const Mlp& net,
                const StandardScaler& scaler);
void save_model_file(const std::string& path, const Mlp& net,
                     const StandardScaler& scaler);

/// Loads a model saved with `save_model`. Throws std::runtime_error on
/// format errors.
void load_model(std::istream& is, Mlp& net, StandardScaler& scaler);
/// Returns false if the file does not exist; throws on corrupt content.
bool load_model_file(const std::string& path, Mlp& net,
                     StandardScaler& scaler);

}  // namespace rt::nn
