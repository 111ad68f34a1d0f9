#include "nn/serialize.hpp"

#include <fstream>
#include <memory>
#include <stdexcept>

namespace rt::nn {

namespace {
constexpr const char* kMagic = "robotack-nn";
constexpr int kVersion = 1;
}  // namespace

void save_model(std::ostream& os, const Mlp& net,
                const StandardScaler& scaler) {
  os.precision(17);
  os << kMagic << ' ' << kVersion << '\n';
  os << "scaler " << scaler.means().size();
  for (double m : scaler.means()) os << ' ' << m;
  for (double s : scaler.stddevs()) os << ' ' << s;
  os << '\n';
  os << "layers " << net.layers().size() << '\n';
  for (const auto& layer : net.layers()) {
    if (layer->kind() == "dense") {
      const auto* dense = dynamic_cast<const Dense*>(layer.get());
      os << "dense " << dense->input_size() << ' ' << dense->output_size();
      for (double v : dense->weights().data()) os << ' ' << v;
      for (double v : dense->bias().data()) os << ' ' << v;
      os << '\n';
    } else if (layer->kind() == "relu") {
      os << "relu\n";
    } else if (layer->kind() == "dropout") {
      const auto* drop = dynamic_cast<const Dropout*>(layer.get());
      os << "dropout " << drop->rate() << '\n';
    } else {
      throw std::runtime_error("save_model: unknown layer kind " +
                               layer->kind());
    }
  }
}

void save_model_file(const std::string& path, const Mlp& net,
                     const StandardScaler& scaler) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_model_file: cannot open " + path);
  save_model(os, net, scaler);
}

void load_model(std::istream& is, Mlp& net, StandardScaler& scaler) {
  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != kMagic || version != kVersion) {
    throw std::runtime_error("load_model: bad header");
  }
  std::string tag;
  std::size_t dim = 0;
  if (!(is >> tag >> dim) || tag != "scaler") {
    throw std::runtime_error("load_model: bad scaler header");
  }
  std::vector<double> means(dim), stds(dim);
  for (double& v : means) is >> v;
  for (double& v : stds) is >> v;
  scaler.set(std::move(means), std::move(stds));

  std::size_t n_layers = 0;
  if (!(is >> tag >> n_layers) || tag != "layers") {
    throw std::runtime_error("load_model: bad layers header");
  }
  net = Mlp();
  for (std::size_t i = 0; i < n_layers; ++i) {
    std::string kind;
    if (!(is >> kind)) throw std::runtime_error("load_model: truncated");
    if (kind == "dense") {
      std::size_t in = 0;
      std::size_t out = 0;
      is >> in >> out;
      auto dense = std::make_unique<Dense>(in, out);
      for (double& v : dense->weights().data()) is >> v;
      for (double& v : dense->bias().data()) is >> v;
      net.add(std::move(dense));
    } else if (kind == "relu") {
      net.add(std::make_unique<Relu>());
    } else if (kind == "dropout") {
      double rate = 0.0;
      is >> rate;
      net.add(std::make_unique<Dropout>(rate, stats::Rng(1)));
    } else {
      throw std::runtime_error("load_model: unknown layer kind " + kind);
    }
  }
  if (!is) throw std::runtime_error("load_model: truncated model file");
}

bool load_model_file(const std::string& path, Mlp& net,
                     StandardScaler& scaler) {
  std::ifstream is(path);
  if (!is) return false;
  load_model(is, net, scaler);
  return true;
}

}  // namespace rt::nn
