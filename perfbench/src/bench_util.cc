#include "bench_util.h"

#include <dirent.h>
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace perfbench {

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(int64_t n, double s) {
  cdf_.resize(static_cast<size_t>(n));
  double total = 0;
  for (int64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[static_cast<size_t>(i)] = total;
  }
  for (auto& v : cdf_) v /= total;
}

int64_t Zipf::Sample(Rng* rng) const {
  double u = rng->UniformDouble(0, 1);
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<int64_t>(it - cdf_.begin());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-9));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double Percentile(std::vector<double> samples, double level) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(level / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::pair<double, double> HonestTail(std::vector<double> samples, double max_level) {
  const double n = static_cast<double>(samples.size());
  if (n < 20) return {0, 0};
  // Ten samples must lie strictly above the reported rank.
  double level = std::floor(100.0 * (n - 10.0) / n * 10.0) / 10.0;
  level = std::min(level, max_level);
  return {level, Percentile(std::move(samples), level)};
}

void ResetPeakRss() {
  // Hand freed heap back first, so that memory of earlier phases (data
  // generation, the baseline engine) does not count as resident.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

HostCpuTicks HostCpuTicks::Read() {
  HostCpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0;
  if (in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> t.steal) {
    t.busy = user + nice + system + irq + softirq;
  }
  return t;
}

double StealShare(const HostCpuTicks& before, const HostCpuTicks& after) {
  const int64_t steal = after.steal - before.steal;
  const int64_t total = after.busy - before.busy + steal;
  return total > 0 ? static_cast<double>(steal) / static_cast<double>(total) : 0;
}

uint64_t Fnv64(const std::string& data, uint64_t h) {
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------

int Tracer::Begin(std::string name, int parent, int64_t op, int tid) {
  Span s;
  s.name = std::move(name);
  s.start_ns = NowNs();
  s.parent = parent;
  s.op = op;
  s.tid = tid;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

void Tracer::Merge(const Tracer& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

}  // namespace

Status Tracer::WriteChromeJson(const std::string& path) const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%lld},\"name\":\"",
                  s.tid, static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(std::max<int64_t>(s.end_ns - s.start_ns, 0)) * 1e-3,
                  i, s.parent, static_cast<long long>(s.op));
    out += buf;
    out += JsonEscape(s.name);
    out += i + 1 < spans_.size() ? "\"},\n" : "\"}\n";
  }
  out += "]}\n";
  return WriteFileAtomic(path, out);
}

// ---------------------------------------------------------------------

void Report::Add(const std::string& name, double value, const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string Report::Table() const {
  std::string out;
  for (const auto& e : entries_) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-34s %16s %s\n", e.name.c_str(),
                  FormatNumber(e.value).c_str(), e.unit.c_str());
    out += buf;
  }
  return out;
}

std::string Report::Json(bool correct, int64_t attempted, int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(entries_[i].name) + "\": {\"value\": " +
           FormatNumber(entries_[i].value) + ", \"unit\": \"" +
           JsonEscape(entries_[i].unit) + "\"}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------------

bool PathExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
}

Status MakeDirs(const std::string& path) {
  std::string partial;
  std::stringstream ss(path);
  std::string part;
  if (!path.empty() && path[0] == '/') partial = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    partial += part + "/";
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("cannot create directory " + partial + ": " +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Status WriteFileAtomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot write " + tmp);
  const bool ok = std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  if (std::fclose(f) != 0 || !ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

void RemoveTree(const std::string& path) {
  DIR* d = ::opendir(path.c_str());
  if (d != nullptr) {
    while (dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      std::string child = path + "/" + name;
      struct stat st;
      if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(child);
      } else {
        ::unlink(child.c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(path.c_str());
}

namespace {

/// Manifest lines: "<name> <size>". True when every listed file exists
/// with exactly that size.
bool ManifestMatches(const std::string& dir, std::vector<std::string>* files) {
  auto text = ReadWholeFile(dir + "/MANIFEST");
  if (!text.ok()) return false;
  std::stringstream ss(*text);
  std::string name;
  long long size = 0;
  files->clear();
  while (ss >> name >> size) {
    const std::string path = dir + "/" + name;
    if (FileSize(path) != size) return false;
    files->push_back(path);
  }
  return !files->empty();
}

}  // namespace

Result<Dataset> EnsureDataset(const std::string& root, const std::string& key,
                              const GenerateFn& generate) {
  FUSION_RETURN_NOT_OK(MakeDirs(root));
  Dataset ds;
  ds.dir = root + "/" + key;
  if (ManifestMatches(ds.dir, &ds.files)) return ds;

  Timer timer;
  const std::string tmp = root + "/.tmp-" + key + "-" + std::to_string(::getpid());
  RemoveTree(tmp);
  FUSION_RETURN_NOT_OK(MakeDirs(tmp));
  auto names = generate(tmp);
  if (!names.ok()) {
    RemoveTree(tmp);
    return names.status();
  }
  std::string manifest;
  for (const auto& name : *names) {
    const int64_t size = FileSize(tmp + "/" + name);
    if (size < 0) {
      RemoveTree(tmp);
      return Status::IOError("generator did not write " + name);
    }
    manifest += name + " " + std::to_string(size) + "\n";
  }
  FUSION_RETURN_NOT_OK(WriteFileAtomic(tmp + "/MANIFEST", manifest));
  // An incomplete or stale directory under the final name is replaced.
  RemoveTree(ds.dir);
  if (std::rename(tmp.c_str(), ds.dir.c_str()) != 0) {
    RemoveTree(tmp);
    return Status::IOError("cannot rename " + tmp + " to " + ds.dir);
  }
  ds.files.clear();
  for (const auto& name : *names) ds.files.push_back(ds.dir + "/" + name);
  ds.generated = true;
  ds.generate_s = timer.Seconds();
  return ds;
}

}  // namespace perfbench
