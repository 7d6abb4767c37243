#include "rf/array.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dwatch::rf {

double steering_phase(std::size_t m_one_based, double theta, double spacing,
                      double lambda) {
  return static_cast<double>(m_one_based - 1) * kTwoPi * spacing / lambda *
         std::cos(theta);
}

linalg::CVector steering_vector(std::size_t num_elements, double theta,
                                double spacing, double lambda) {
  linalg::CVector a(num_elements);
  for (std::size_t m = 1; m <= num_elements; ++m) {
    const double w = steering_phase(m, theta, spacing, lambda);
    a[m - 1] = std::polar(1.0, -w);
  }
  return a;
}

UniformLinearArray::UniformLinearArray(Vec3 center, Vec2 axis,
                                       std::size_t num_elements,
                                       double spacing, double carrier_hz)
    : center_(center),
      axis_(axis),
      num_elements_(num_elements),
      spacing_(spacing),
      carrier_hz_(carrier_hz),
      lambda_(wavelength(carrier_hz)) {
  if (num_elements_ < 2) {
    throw std::invalid_argument("UniformLinearArray: need >= 2 elements");
  }
  if (spacing_ <= 0.0) {
    throw std::invalid_argument("UniformLinearArray: spacing must be > 0");
  }
  if (carrier_hz_ <= 0.0) {
    throw std::invalid_argument("UniformLinearArray: carrier must be > 0");
  }
  const double n = axis_.norm();
  if (n == 0.0) {
    throw std::invalid_argument("UniformLinearArray: zero axis");
  }
  axis_ = axis_ / n;
}

Vec3 UniformLinearArray::element_position(std::size_t m_one_based) const {
  if (m_one_based == 0 || m_one_based > num_elements_) {
    throw std::out_of_range("UniformLinearArray: element index out of range");
  }
  const double offset =
      (static_cast<double>(m_one_based - 1) -
       static_cast<double>(num_elements_ - 1) / 2.0) *
      spacing_;
  return {center_.x + axis_.x * offset, center_.y + axis_.y * offset,
          center_.z};
}

double UniformLinearArray::arrival_cosine(const Vec3& source) const {
  const Vec3 k = (source - center_).normalized();
  // Reference direction is -axis so that increasing element index moves
  // AWAY from a theta=0 source, matching x_m = s e^{-j omega(m,theta)}.
  return std::clamp(-(axis_.x * k.x + axis_.y * k.y), -1.0, 1.0);
}

double UniformLinearArray::arrival_cosine_planar(Vec2 source_xy) const {
  return arrival_cosine(lift(source_xy, center_.z));
}

double UniformLinearArray::arrival_angle(const Vec3& source) const {
  return std::acos(arrival_cosine(source));
}

double UniformLinearArray::arrival_angle_planar(Vec2 source_xy) const {
  return arrival_angle(lift(source_xy, center_.z));
}

linalg::CVector UniformLinearArray::steering(double theta) const {
  return steering_vector(num_elements_, theta, spacing_, lambda_);
}

}  // namespace dwatch::rf
