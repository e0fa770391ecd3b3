#include "snn/reference.hpp"

#include "common/check.hpp"

namespace spikestream::snn {

Reference::Reference(const Network& net) : net_(net) {
  membranes_.resize(net.num_layers());
  io_.resize(net.num_layers());
  reset();
}

void Reference::reset() {
  for (std::size_t l = 0; l < net_.num_layers(); ++l) {
    const LayerSpec& s = net_.layer(l);
    membranes_[l] = Tensor(s.out_h(), s.out_w(), s.out_c);
  }
}

Tensor Reference::conv_currents(const SpikeMap& in, const LayerWeights& w) {
  const int k = w.k;
  const int out_c = w.out_c;
  Tensor out(in.h - k + 1, in.w - k + 1, out_c);
  const float* wbase = w.v.data();
  for (int oy = 0; oy < out.h; ++oy) {
    for (int ox = 0; ox < out.w; ++ox) {
      float* __restrict__ acc = &out.at(oy, ox, 0);
      for (int kh = 0; kh < k; ++kh) {
        for (int kw = 0; kw < k; ++kw) {
          const std::uint8_t* row = &in.at(oy + kh, ox + kw, 0);
          const std::size_t base =
              (static_cast<std::size_t>(kh) * k + kw) *
              static_cast<std::size_t>(w.in_c);
          for (int ci = 0; ci < in.c; ++ci) {
            if (!row[ci]) continue;
            const float* __restrict__ wrow =
                wbase + (base + ci) * static_cast<std::size_t>(out_c);
            for (int co = 0; co < out_c; ++co) acc[co] += wrow[co];
          }
        }
      }
    }
  }
  return out;
}

Tensor Reference::conv_currents_dense(const Tensor& in, const LayerWeights& w) {
  Tensor out;
  conv_currents_dense_into(in, w, out);
  return out;
}

void Reference::conv_currents_dense_into(const Tensor& in,
                                         const LayerWeights& w, Tensor& out) {
  out.reshape(in.h - w.k + 1, in.w - w.k + 1, w.out_c);
  conv_currents_dense_rows(in, w, out, 0, out.h);
}

void Reference::conv_currents_dense_rows(const Tensor& in,
                                         const LayerWeights& w, Tensor& out,
                                         int oy0, int oy1) {
  const int k = w.k;
  const int out_c = w.out_c;
  const auto row = static_cast<std::ptrdiff_t>(out.w) * out_c;
  std::fill(out.v.begin() + oy0 * row, out.v.begin() + oy1 * row, 0.0f);
  const float* wbase = w.v.data();
  for (int oy = oy0; oy < oy1; ++oy) {
    for (int ox = 0; ox < out.w; ++ox) {
      float* __restrict__ acc = &out.at(oy, ox, 0);
      for (int kh = 0; kh < k; ++kh) {
        for (int kw = 0; kw < k; ++kw) {
          const float* row = &in.at(oy + kh, ox + kw, 0);
          const std::size_t base =
              (static_cast<std::size_t>(kh) * k + kw) *
              static_cast<std::size_t>(w.in_c);
          for (int ci = 0; ci < in.c; ++ci) {
            const float x = row[ci];
            if (x == 0.0f) continue;
            const float* __restrict__ wrow =
                wbase + (base + ci) * static_cast<std::size_t>(out_c);
            for (int co = 0; co < out_c; ++co) acc[co] += x * wrow[co];
          }
        }
      }
    }
  }
}

Tensor Reference::fc_currents(const SpikeMap& in, const LayerWeights& w) {
  SPK_CHECK(static_cast<int>(in.size()) == w.in_c,
            "FC input size mismatch: " << in.size() << " vs " << w.in_c);
  Tensor out(1, 1, w.out_c);
  for (int ci = 0; ci < w.in_c; ++ci) {
    if (!in.v[static_cast<std::size_t>(ci)]) continue;
    const float* wrow = &w.v[w.index(0, 0, ci, 0)];
    for (int co = 0; co < w.out_c; ++co) out.v[static_cast<std::size_t>(co)] += wrow[co];
  }
  return out;
}

int Reference::encode_padding(const LayerSpec& spec, const Tensor& image) {
  const int p = (spec.in_h - image.h) / 2;
  SPK_CHECK(p >= 0 && image.h + 2 * p == spec.in_h &&
                image.w + 2 * p == spec.in_w && image.c == spec.in_c,
            spec.name << ": a " << image.h << "x" << image.w << "x" << image.c
                      << " image does not pad to the " << spec.in_h << "x"
                      << spec.in_w << "x" << spec.in_c << " layer input");
  return p;
}

Tensor Reference::pad_dense(const Tensor& t, int p) {
  Tensor out;
  pad_dense_into(t, p, out);
  return out;
}

void Reference::pad_dense_into(const Tensor& t, int p, Tensor& out) {
  // A negative pad would copy rows outside `out` (images larger than the
  // layer's padded input reach here from every encode-layer caller).
  SPK_CHECK(p >= 0, "negative image padding " << p);
  out.reshape(t.h + 2 * p, t.w + 2 * p, t.c);
  std::fill(out.v.begin(), out.v.end(), 0.0f);
  const std::size_t row = static_cast<std::size_t>(t.w) * t.c;
  for (int y = 0; y < t.h; ++y) {
    std::copy_n(&t.v[static_cast<std::size_t>(y) * row], row,
                &out.at(y + p, p, 0));
  }
}

SpikeMap Reference::flatten(const SpikeMap& s) {
  SpikeMap out(1, 1, static_cast<int>(s.size()));
  out.v = s.v;
  return out;
}

const std::vector<LayerIo>& Reference::step(const Tensor& image) {
  SpikeMap carry;  // spikes flowing into the next layer
  for (std::size_t l = 0; l < net_.num_layers(); ++l) {
    const LayerSpec& spec = net_.layer(l);
    LayerIo& io = io_[l];
    Tensor currents;

    if (spec.kind == LayerKind::kEncodeConv) {
      io.dense_input = pad_dense(image, encode_padding(spec, image));
      currents = conv_currents_dense(io.dense_input, net_.weights(l));
    } else if (spec.kind == LayerKind::kConv) {
      io.spike_input = carry;
      SPK_CHECK(io.spike_input.h == spec.in_h && io.spike_input.c == spec.in_c,
                "conv " << spec.name << " input shape mismatch");
      currents = conv_currents(io.spike_input, net_.weights(l));
    } else {
      io.spike_input = carry;
      currents = fc_currents(io.spike_input, net_.weights(l));
    }

    io.output = lif_step(spec.lif, currents, membranes_[l]);

    // Prepare the next layer's ifmap.
    SpikeMap next = io.output;
    if (spec.pool_after) next = or_pool2(next);
    if (l + 1 < net_.num_layers()) {
      if (net_.layer(l + 1).kind == LayerKind::kFc) {
        next = flatten(next);
      } else {
        next = pad(next, spec.pad_next);
      }
    }
    io.next_input = next;
    carry = std::move(next);
  }
  return io_;
}

}  // namespace spikestream::snn
