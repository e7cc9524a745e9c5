#include "oracle/oracle.hpp"

#include <algorithm>
#include <cassert>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "realm/dsp/filter.hpp"
#include "realm/jpeg/dct.hpp"
#include "realm/jpeg/quant.hpp"
#include "realm/multiplier.hpp"
#include "realm/multipliers/registry.hpp"
#include "realm/numeric/fixed_point.hpp"

namespace realm::oracle {

namespace {

std::int32_t rescale_sat(std::int64_t acc) {
  constexpr int kBits = jpeg::kDctCoeffBits;
  const std::int64_t rounded =
      (acc + (acc >= 0 ? (1 << (kBits - 1)) : -(1 << (kBits - 1)))) >> kBits;
  return num::sat_signed(rounded, 16);
}

// One 8-point pass: out[u] = Σ_k m[u][k] · in[k] (mᵀ when transpose_m),
// accumulated in 64 bits with k ascending and rescaled once.
void pass(const std::int32_t in[8], std::int32_t out[8], bool transpose_m,
          const Multiplier& m) {
  const auto& c = jpeg::dct_matrix_q12();
  for (int u = 0; u < 8; ++u) {
    std::int64_t acc = 0;
    for (int k = 0; k < 8; ++k) {
      const std::int16_t coeff =
          c[static_cast<std::size_t>(transpose_m ? k * 8 + u : u * 8 + k)];
      acc += signed_mul(coeff, in[k], m);
    }
    out[u] = rescale_sat(acc);
  }
}

// Column pass tmp = M·in, then row pass out = tmp·Mᵀ (M = C forward, Cᵀ
// inverse).
void transform(const std::array<std::int16_t, 64>& in, std::array<std::int16_t, 64>& out,
               bool inverse, const Multiplier& m) {
  std::int32_t tmp[64];
  for (int j = 0; j < 8; ++j) {
    std::int32_t col[8], res[8];
    for (int k = 0; k < 8; ++k) col[k] = in[static_cast<std::size_t>(k * 8 + j)];
    pass(col, res, inverse, m);
    for (int u = 0; u < 8; ++u) tmp[u * 8 + j] = res[u];
  }
  for (int i = 0; i < 8; ++i) {
    std::int32_t row[8], res[8];
    for (int k = 0; k < 8; ++k) row[k] = tmp[i * 8 + k];
    pass(row, res, inverse, m);
    for (int v = 0; v < 8; ++v) {
      out[static_cast<std::size_t>(i * 8 + v)] = static_cast<std::int16_t>(res[v]);
    }
  }
}

int clamp_coord(int v, int hi) { return std::clamp(v, 0, hi - 1); }

}  // namespace

const Multiplier& exact() {
  static const auto m = mult::make_multiplier("accurate", 16);
  return *m;
}

std::int64_t signed_mul(std::int64_t a, std::int64_t b, const Multiplier& m) {
  assert(a != INT64_MIN && b != INT64_MIN && "signed_mul: |INT64_MIN| overflows");
  const bool neg = (a < 0) != (b < 0);
  const auto ua = static_cast<std::uint64_t>(a < 0 ? -a : a);
  const auto ub = static_cast<std::uint64_t>(b < 0 ? -b : b);
  const auto p = static_cast<std::int64_t>(m.multiply(ua, ub));
  return neg ? -p : p;
}

std::int32_t fx_mul(std::int32_t a, std::int32_t b, int frac_bits, const Multiplier& m) {
  assert(frac_bits >= 0 && frac_bits < 32);
  const std::int64_t p = signed_mul(a, b, m);
  const std::int64_t q = (p < 0) ? -((-p) >> frac_bits) : (p >> frac_bits);
  return static_cast<std::int32_t>(q);
}

void fdct8x8(const std::array<std::int16_t, 64>& block, std::array<std::int16_t, 64>& out,
             const Multiplier& m) {
  transform(block, out, /*inverse=*/false, m);
}

void idct8x8(const std::array<std::int16_t, 64>& coeffs,
             std::array<std::int16_t, 64>& out, const Multiplier& m) {
  transform(coeffs, out, /*inverse=*/true, m);
}

std::int32_t dequantize(std::int16_t level, std::uint16_t q, const Multiplier& m) {
  return static_cast<std::int32_t>(signed_mul(q, level, m));
}

jpeg::Compressed jpeg_encode(const jpeg::Image& img, int quality, const Multiplier& m) {
  const auto qtable = jpeg::scaled_table(quality);
  std::vector<std::int16_t> levels;
  levels.reserve(static_cast<std::size_t>(img.width()) *
                 static_cast<std::size_t>(img.height()));
  for (int by = 0; by < img.height(); by += 8) {
    for (int bx = 0; bx < img.width(); bx += 8) {
      std::array<std::int16_t, 64> block{}, coeffs{};
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          block[static_cast<std::size_t>(y * 8 + x)] =
              static_cast<std::int16_t>(img.at(bx + x, by + y) - 128);
        }
      }
      fdct8x8(block, coeffs, m);
      for (std::size_t i = 0; i < 64; ++i) {
        levels.push_back(jpeg::quantize(coeffs[i], qtable[i]));
      }
    }
  }
  jpeg::Compressed out = jpeg::entropy_encode(img, levels);
  out.quality = quality;
  return out;
}

jpeg::Image jpeg_decode(const jpeg::Compressed& c, const Multiplier& m,
                        bool approximate_dequant) {
  const auto qtable = jpeg::scaled_table(c.quality);
  const std::vector<std::int16_t> levels = jpeg::parse_levels(c);
  jpeg::Image img{c.width, c.height};
  std::size_t bi = 0;
  for (int by = 0; by < c.height; by += 8) {
    for (int bx = 0; bx < c.width; bx += 8, ++bi) {
      const std::int16_t* lv = levels.data() + bi * 64;
      std::array<std::int16_t, 64> coeffs{}, pixels{};
      for (std::size_t i = 0; i < 64; ++i) {
        const std::int64_t p = approximate_dequant ? dequantize(lv[i], qtable[i], m)
                                                   : std::int64_t{lv[i]} * qtable[i];
        coeffs[i] = static_cast<std::int16_t>(num::sat_signed(p, 16));
      }
      idct8x8(coeffs, pixels, m);
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          const int v = pixels[static_cast<std::size_t>(y * 8 + x)] + 128;
          img.set(bx + x, by + y, static_cast<std::uint8_t>(std::clamp(v, 0, 255)));
        }
      }
    }
  }
  return img;
}

int predict_fixed(const nn::Mlp::Quantized& net, const std::array<double, 2>& x,
                  const Multiplier& m) {
  const int fb = net.frac_bits;
  std::vector<std::int32_t> cur{num::to_fx(x[0], fb), num::to_fx(x[1], fb)};
  for (std::size_t l = 0; l < net.weights.size(); ++l) {
    const auto in = static_cast<std::size_t>(net.layers[l]);
    const auto out = static_cast<std::size_t>(net.layers[l + 1]);
    std::vector<std::int32_t> next(out);
    for (std::size_t o = 0; o < out; ++o) {
      std::int64_t acc = net.biases[l][o];  // Q(2fb)
      for (std::size_t i = 0; i < in; ++i) {
        acc += signed_mul(net.weights[l][o * in + i], cur[i], m);
      }
      std::int32_t v = num::sat_signed(acc >> fb, 16);  // back to Q(fb)
      const bool last = l + 1 == net.weights.size();
      if (!last && v < 0) v = 0;  // ReLU
      next[o] = v;
    }
    cur = std::move(next);
  }
  return cur[1] > cur[0] ? 1 : 0;
}

double accuracy_fixed(const nn::Mlp::Quantized& net, const nn::Dataset& data,
                      const Multiplier& m) {
  int correct = 0;
  for (std::size_t i = 0; i < data.x.size(); ++i) {
    if (predict_fixed(net, data.x[i], m) == data.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.x.size());
}

jpeg::Image convolve(const jpeg::Image& img, const std::vector<double>& kernel, int size,
                     const Multiplier& m, int frac_bits) {
  std::vector<std::int32_t> taps(kernel.size());
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    taps[i] = num::to_fx(kernel[i], frac_bits);
  }
  const int r = size / 2;
  jpeg::Image out{img.width(), img.height()};
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      std::int64_t acc = 0;
      for (int ky = -r; ky <= r; ++ky) {
        for (int kx = -r; kx <= r; ++kx) {
          const std::int32_t tap =
              taps[static_cast<std::size_t>((ky + r) * size + (kx + r))];
          if (tap == 0) continue;
          const int px = img.at(clamp_coord(x + kx, img.width()),
                                clamp_coord(y + ky, img.height()));
          acc += signed_mul(tap, px, m);
        }
      }
      const std::int64_t v = acc >> frac_bits;
      out.set(x, y, static_cast<std::uint8_t>(std::clamp<std::int64_t>(v, 0, 255)));
    }
  }
  return out;
}

jpeg::Image gaussian_blur(const jpeg::Image& img, double sigma, const Multiplier& m) {
  const int size = std::max(3, 2 * static_cast<int>(std::ceil(2.0 * sigma)) + 1);
  return convolve(img, dsp::gaussian_kernel(size, sigma), size, m);
}

jpeg::Image sobel(const jpeg::Image& img, const Multiplier& m) {
  static constexpr int kGx[9] = {-1, 0, 1, -2, 0, 2, -1, 0, 1};
  static constexpr int kGy[9] = {-1, -2, -1, 0, 0, 0, 1, 2, 1};
  jpeg::Image out{img.width(), img.height()};
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      std::int64_t gx = 0, gy = 0;
      for (int ky = -1; ky <= 1; ++ky) {
        for (int kx = -1; kx <= 1; ++kx) {
          const int px = img.at(clamp_coord(x + kx, img.width()),
                                clamp_coord(y + ky, img.height()));
          const int idx = (ky + 1) * 3 + (kx + 1);
          if (kGx[idx] != 0) gx += signed_mul(kGx[idx], px, m);
          if (kGy[idx] != 0) gy += signed_mul(kGy[idx], px, m);
        }
      }
      const std::int64_t mag = std::abs(gx) + std::abs(gy);
      out.set(x, y, static_cast<std::uint8_t>(std::clamp<std::int64_t>(mag, 0, 255)));
    }
  }
  return out;
}

}  // namespace realm::oracle
