#include "obs/jsonl.h"

#include <ostream>

#include "obs/attribution.h"

namespace eprons::obs {

namespace {

// Appends a field table's `"name": "<json type>"` lines at `indent`; a
// vector of rows nests its row table as `[{...}]`.
struct SchemaFieldWriter {
  std::string* out;
  int indent;
  bool first = true;

  template <class T>
  void operator()(const char* name, const T&) {
    append_name(name);
    *out += '"' + std::string(json_type<T>()) + '"';
  }
  template <class Row>
  void operator()(const char* name, const std::vector<Row>&) {
    append_name(name);
    *out += "[{";
    Row{}.fields(SchemaFieldWriter{out, indent + 2});
    *out += '\n' + std::string(indent, ' ') + "}]";
  }
  void append_name(const char* name) {
    *out += (first ? "\n" : ",\n") + std::string(indent, ' ') + '"' + name +
            "\": ";
    first = false;
  }
};

// Appends `"<name>": [...]`, one quoted string per line.
template <class Strings>
void append_strings(std::string& out, const char* name,
                    const Strings& strings) {
  out += std::string("      \"") + name + "\": [";
  for (const char* text : strings) {
    out += (out.back() == '[' ? "\n" : ",\n") + std::string(8, ' ') + '"' +
           json_escape(text) + '"';
  }
  out += "\n      ]";
}

template <JsonlRecord R>
void append_record_schema(std::string& out) {
  out += out.back() == '[' ? "\n    {\n" : ",\n    {\n";
  append_strings(out, "sources", R::sources);
  out += ",\n      \"fields\": {";
  R{}.fields(SchemaFieldWriter{&out, 8});
  out += "\n      },\n";
  if constexpr (requires { R::identities; }) {
    append_strings(out, "identities", R::identities);
  } else {
    out += "      \"identities\": []";
  }
  out += "\n    }";
}

}  // namespace

std::string record_schema_json() {
  std::string out = "{\n  \"records\": [";
  append_record_schema<EpochRecord>(out);
  append_record_schema<FaultRecord>(out);
  append_record_schema<ServingWindowRecord>(out);
  append_record_schema<ScheduleEpochRecord>(out);
  append_record_schema<ScheduleSummaryRecord>(out);
  append_record_schema<AttributionRecord>(out);
  append_record_schema<PlanExplainRecord>(out);
  out += "\n  ]\n}\n";
  return out;
}

void JsonlWriter::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(mutex_);
  (*os_) << line;
  os_->flush();  // streaming: each epoch is visible as soon as it happens
  ++records_;
}

std::size_t JsonlWriter::records_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

}  // namespace eprons::obs
