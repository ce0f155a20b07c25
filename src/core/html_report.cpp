#include "core/html_report.hpp"

#include <cmath>
#include <sstream>

#include "core/lint.hpp"
#include "util/strings.hpp"
#include "viz/charts.hpp"
#include "viz/gantt.hpp"

namespace banger {

namespace {

std::string html_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '&': out += "&amp;"; break;
      default: out += c;
    }
  }
  return out;
}

/// A small inline SVG line chart for the speedup curve (measured vs
/// ideal), sized to sit beside the Gantt.
std::string speedup_svg(const sched::SpeedupCurve& curve) {
  const int width = 420;
  const int height = 260;
  const int ml = 46;
  const int mb = 34;
  const int plot_w = width - ml - 16;
  const int plot_h = height - mb - 20;
  if (curve.points.empty()) return "";
  const double max_procs = curve.points.back().procs;
  double max_y = 1.0;
  for (const auto& p : curve.points) max_y = std::max(max_y, p.speedup);
  max_y = std::ceil(std::min(max_y * 1.15, max_procs));

  auto x_of = [&](double procs) {
    return ml + (procs - 1) / std::max(1.0, max_procs - 1) * plot_w;
  };
  auto y_of = [&](double speedup) {
    return 20 + (1.0 - speedup / max_y) * plot_h;
  };

  std::ostringstream svg;
  svg << "<svg width=\"" << width << "\" height=\"" << height
      << "\" xmlns=\"http://www.w3.org/2000/svg\" font-family=\"monospace\""
         " font-size=\"11\">\n";
  // Axes.
  svg << "<line x1=\"" << ml << "\" y1=\"20\" x2=\"" << ml << "\" y2=\""
      << 20 + plot_h << "\" stroke=\"#444\"/>\n";
  svg << "<line x1=\"" << ml << "\" y1=\"" << 20 + plot_h << "\" x2=\""
      << ml + plot_w << "\" y2=\"" << 20 + plot_h << "\" stroke=\"#444\"/>\n";
  svg << "<text x=\"8\" y=\"26\">" << util::format_double(max_y, 3)
      << "</text>\n<text x=\"8\" y=\"" << 20 + plot_h << "\">0</text>\n";
  // Ideal line.
  svg << "<line x1=\"" << x_of(1) << "\" y1=\"" << y_of(1) << "\" x2=\""
      << x_of(std::min(max_procs, max_y)) << "\" y2=\""
      << y_of(std::min(max_procs, max_y))
      << "\" stroke=\"#bbb\" stroke-dasharray=\"4,3\"/>\n";
  // Measured polyline + points.
  svg << "<polyline fill=\"none\" stroke=\"#4477aa\" stroke-width=\"2\" "
         "points=\"";
  for (const auto& p : curve.points) {
    svg << x_of(p.procs) << "," << y_of(p.speedup) << " ";
  }
  svg << "\"/>\n";
  for (const auto& p : curve.points) {
    svg << "<circle cx=\"" << x_of(p.procs) << "\" cy=\"" << y_of(p.speedup)
        << "\" r=\"3.5\" fill=\"#4477aa\"><title>" << p.procs
        << " procs: speedup " << util::format_double(p.speedup, 4)
        << "</title></circle>\n";
    svg << "<text x=\"" << x_of(p.procs) - 4 << "\" y=\"" << height - 14
        << "\">" << p.procs << "</text>\n";
  }
  svg << "<text x=\"" << ml + plot_w / 2 - 30 << "\" y=\"" << height - 2
      << "\">processors</text>\n";
  svg << "</svg>\n";
  return svg.str();
}

}  // namespace

std::string render_html_report(const Project& project,
                               const HtmlReportOptions& options) {
  const auto& schedule = project.schedule(options.scheduler);
  const auto metrics = project.metrics(options.scheduler);
  const auto summary = project.summary();
  const auto issues = lint_design(project.flattened());
  const auto curve = project.speedup(options.speedup_sizes, options.scheduler);

  std::ostringstream html;
  html << "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n"
       << "<title>banger report: " << html_escape(project.design().name())
       << "</title>\n<style>\n"
       << "body{font-family:system-ui,sans-serif;margin:2em;max-width:70em}\n"
       << "h1,h2{font-weight:600} table{border-collapse:collapse}\n"
       << "td,th{border:1px solid #ccc;padding:4px 10px;text-align:right}\n"
       << "th{background:#f2f2f2} td:first-child,th:first-child"
       << "{text-align:left}\n"
       << ".warn{color:#9a6700} .err{color:#c00}\n"
       << "section{margin-bottom:2em}\n</style></head><body>\n";

  html << "<h1>banger report: " << html_escape(project.design().name())
       << "</h1>\n";

  html << "<section><h2>Design</h2><table>\n"
       << "<tr><th>leaf tasks</th><th>dependences</th><th>stores</th>"
       << "<th>depth</th><th>total work</th><th>critical path</th>"
       << "<th>avg parallelism</th></tr>\n"
       << "<tr><td>" << summary.leaf_tasks << "</td><td>" << summary.edges
       << "</td><td>" << summary.stores << "</td><td>" << summary.depth
       << "</td><td>" << util::format_double(summary.total_work)
       << "</td><td>" << util::format_double(summary.critical_path_work)
       << "</td><td>" << util::format_double(summary.average_parallelism, 4)
       << "</td></tr></table></section>\n";

  html << "<section><h2>Lint</h2>\n";
  if (issues.empty()) {
    html << "<p>clean — no issues found</p>\n";
  } else {
    html << "<ul>\n";
    for (const auto& issue : issues) {
      html << "<li class=\""
           << (issue.severity == LintSeverity::Error ? "err" : "warn")
           << "\">" << html_escape(issue.to_string()) << "</li>\n";
    }
    html << "</ul>\n";
  }
  html << "</section>\n";

  html << "<section><h2>Schedule (" << html_escape(options.scheduler)
       << " on " << html_escape(project.machine().name()) << ")</h2>\n"
       << "<p>makespan " << util::format_double(metrics.makespan, 6)
       << " &middot; speedup " << util::format_double(metrics.speedup, 4)
       << " &middot; efficiency "
       << util::format_double(metrics.efficiency, 4) << " &middot; "
       << metrics.procs_used << "/" << metrics.procs
       << " processors used &middot; " << metrics.duplicates
       << " duplicates</p>\n"
       << viz::render_gantt_svg(schedule, project.flattened().graph)
       << "</section>\n";

  html << "<section><h2>Speedup prediction</h2>\n" << speedup_svg(curve)
       << "</section>\n";

  html << "<section><h2>Heuristic comparison</h2><table>\n"
       << "<tr><th>scheduler</th><th>makespan</th><th>speedup</th>"
       << "<th>efficiency</th><th>procs used</th><th>duplicates</th></tr>\n";
  for (const std::string& name : sched::scheduler_names()) {
    const auto m = project.metrics(name);
    html << "<tr><td>" << name << "</td><td>"
         << util::format_double(m.makespan, 6) << "</td><td>"
         << util::format_double(m.speedup, 4) << "</td><td>"
         << util::format_double(m.efficiency, 4) << "</td><td>"
         << m.procs_used << "</td><td>" << m.duplicates << "</td></tr>\n";
  }
  html << "</table></section>\n";

  html << "<footer><small>generated by the banger environment "
       << "(reproduction of Lewis, ICPP 1994)</small></footer>\n"
       << "</body></html>\n";
  return html.str();
}

}  // namespace banger
