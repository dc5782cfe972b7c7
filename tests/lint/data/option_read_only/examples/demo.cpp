#include "src/widget/widget.hpp"

int main() {
  cpla::widget::WidgetOptions opt{.iterations = 8};
  opt.limits.depth = 5;
  opt.step *= 2.0;
  if (opt.retries == 2 || opt.retries <= 0 || opt.retries >= 9 || opt.retries != 1) return 1;
  const bool verbose = opt.verbose;
  return verbose ? 2 : cpla::widget::run(opt);
}
