#include "Trace.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

namespace {

/// Trace timestamps count from process start, so every span is >= 0.
const Clock::time_point Epoch = Clock::now();

void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
}

} // namespace

int64_t Tracer::toNs(Clock::time_point T) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
      .count();
}

int64_t Tracer::nowNs() { return toNs(Clock::now()); }

uint32_t Tracer::nameId(const std::string &Name) {
  auto It = NameIds.find(Name);
  if (It != NameIds.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(Names.size());
  Names.push_back(Name);
  NameIds.emplace(Name, Id);
  return Id;
}

int32_t Tracer::begin(uint32_t NameId, uint32_t Req) {
  int32_t Parent = Open.empty() ? -1 : Open.back();
  int32_t Idx = static_cast<int32_t>(Spans.size());
  Spans.push_back({NameId, nowNs(), 0, Parent, Req, Tid});
  Open.push_back(Idx);
  return Idx;
}

void Tracer::end(int32_t Idx) {
  Spans[static_cast<size_t>(Idx)].EndNs = nowNs();
  // Spans close in LIFO order under ScopedSpan; tolerate an explicit
  // end() of an outer span by unwinding everything above it.
  while (!Open.empty()) {
    int32_t Top = Open.back();
    Open.pop_back();
    if (Top == Idx)
      break;
  }
}

int32_t Tracer::add(uint32_t NameId, int64_t StartNs, int64_t EndNs,
                    int32_t Parent, uint32_t Req) {
  int32_t Idx = static_cast<int32_t>(Spans.size());
  Spans.push_back({NameId, StartNs, EndNs, Parent, Req, Tid});
  return Idx;
}

std::vector<int64_t> perfbench::selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Kids[static_cast<size_t>(S.Parent)].push_back({S.StartNs, S.EndNs});
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    // Union of the children's intervals, clipped to the parent's.
    int64_t Covered = 0, CurLo = 0, CurHi = 0;
    bool Have = false;
    for (auto [Lo, Hi] : K) {
      Lo = std::max(Lo, P.StartNs);
      Hi = std::min(Hi, P.EndNs);
      if (Hi <= Lo)
        continue;
      if (Have && Lo <= CurHi) {
        CurHi = std::max(CurHi, Hi);
        continue;
      }
      if (Have)
        Covered += CurHi - CurLo;
      CurLo = Lo;
      CurHi = Hi;
      Have = true;
    }
    if (Have)
      Covered += CurHi - CurLo;
    Self[I] = (P.EndNs - P.StartNs) - Covered;
  }
  return Self;
}

std::map<uint32_t, double>
perfbench::perRequestMs(const std::vector<Span> &Spans, uint32_t NameId) {
  std::map<uint32_t, double> Out;
  for (const Span &S : Spans)
    if (S.NameId == NameId)
      Out[S.Req] += double(S.EndNs - S.StartNs) / 1e6;
  return Out;
}

bool perfbench::writeChromeTrace(const std::string &Path,
                                 const std::vector<const Tracer *> &Tracers,
                                 const std::string &Metadata) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{" + Metadata +
                    "},\"traceEvents\":[\n";
  bool First = true;
  char Buf[160];
  for (const Tracer *T : Tracers) {
    const std::vector<Span> &Spans = T->spans();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      if (!First)
        Out += ",\n";
      First = false;
      Out += "{\"name\":";
      appendJsonString(Out, T->name(S.NameId));
      std::snprintf(Buf, sizeof(Buf),
                    ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"req\":%u,\"span\":%zu,"
                    "\"parent\":%d}}",
                    S.Tid, double(S.StartNs) / 1e3,
                    double(S.EndNs - S.StartNs) / 1e3, S.Req, I, S.Parent);
      Out += Buf;
      if (Out.size() > (1u << 20)) {
        std::fwrite(Out.data(), 1, Out.size(), F);
        Out.clear();
      }
    }
  }
  Out += "\n]}\n";
  std::fwrite(Out.data(), 1, Out.size(), F);
  bool WriteOk = !std::ferror(F);
  return std::fclose(F) == 0 && WriteOk;
}
