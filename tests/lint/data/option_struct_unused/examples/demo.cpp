#include "src/widget/widget.hpp"

int main() {
  cpla::widget::WidgetOptions opt;
  opt.iterations = 8;
  cpla::widget::Canvas canvas;
  canvas.scale = 2.0;
  return cpla::widget::run(opt, canvas);
}
