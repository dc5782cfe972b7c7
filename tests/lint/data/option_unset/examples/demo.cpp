#include "src/widget/widget.hpp"

int main() {
  cpla::widget::WidgetOptions opt{.iterations = 8};
  opt.fast = false;
  opt.on_iteration = [](int) {};
  return opt.valid() ? 0 : 1;
}
