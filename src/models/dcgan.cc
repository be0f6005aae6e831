#include "models/dcgan.hh"

#include <vector>

#include "models/builder.hh"
#include "sim/types.hh"

namespace deepum::models {

using sim::kMiB;

namespace {

/** A small conv stack with saved activations. */
struct Net {
    std::vector<Weight> w;
    std::vector<torch::TensorId> act;  ///< per-layer outputs
    std::vector<torch::TensorId> gact; ///< their gradients
};

Net
makeNet(NetBuilder &b, const std::string &prefix, std::uint32_t layers,
        std::uint64_t param_bytes, std::uint64_t act_bytes,
        const std::string &act_tag)
{
    Net net;
    for (std::uint32_t i = 0; i < layers; ++i) {
        std::string tag = prefix + std::to_string(i);
        net.w.push_back(b.weight(tag, param_bytes / layers));
        net.act.push_back(b.transient(
            tag + act_tag + ".act",
            std::max<std::uint64_t>(act_bytes / layers, 64 * 1024)));
        net.gact.push_back(b.transient(
            tag + act_tag + ".gact",
            std::max<std::uint64_t>(act_bytes / layers, 64 * 1024)));
    }
    return net;
}

/** Forward @p net from @p input; activations are allocated. */
void
forward(NetBuilder &b, Net &net, torch::TensorId input,
        const char *opname)
{
    torch::TensorId prev = input;
    for (std::size_t i = 0; i < net.w.size(); ++i) {
        b.alloc(net.act[i]);
        b.kernel(opname, {prev, net.w[i].param}, {net.act[i]}, 2.0);
        prev = net.act[i];
    }
}

/**
 * Backward through @p net; frees activations. When @p to_input is
 * valid the input gradient is produced there (for chaining G <- D).
 * @p weight_grads false propagates only activation gradients (the
 * D-through pass when training G).
 */
void
backward(NetBuilder &b, Net &net, torch::TensorId input,
         torch::TensorId gtop, torch::TensorId to_input,
         const char *opname, bool weight_grads)
{
    torch::TensorId gprev = gtop;
    for (std::size_t i = net.w.size(); i-- > 0;) {
        torch::TensorId below = i == 0 ? input : net.act[i - 1];
        std::vector<torch::TensorId> outs;
        torch::TensorId gout =
            i == 0 ? to_input : net.gact[i - 1];
        if (i > 0)
            b.alloc(net.gact[i - 1]);
        if (gout != torch::kNoTensor)
            outs.push_back(gout);
        if (weight_grads)
            outs.push_back(net.w[i].grad);
        b.kernel(opname, {gprev, below, net.w[i].param}, outs, 2.2);
        if (gprev != gtop)
            b.release(gprev);
        b.release(net.act[i]);
        gprev = i > 0 ? net.gact[i - 1] : torch::kNoTensor;
    }
}

} // namespace

torch::Tape
buildDcgan(const DcganSpec &spec, std::uint64_t batch)
{
    NetBuilder b(spec.name, batch, spec.ai);

    const std::uint64_t act_total = spec.actPerSampleBytes * batch;

    Net gen = makeNet(b, "G", spec.layers, spec.paramBytes / 2,
                      act_total / 2, "");
    Net disc_r = makeNet(b, "D", spec.layers, spec.paramBytes / 2,
                         act_total / 4, ".real");
    // The fake pass reuses D's weights but needs its own activations.
    Net disc_f = disc_r;
    for (std::uint32_t i = 0; i < spec.layers; ++i) {
        // Appended rather than `"D" + std::to_string(i)`: g++ 12 warns
        // falsely (-Wrestrict) on that operator+ once inlined here.
        std::string tag = "D";
        tag += std::to_string(i);
        tag += ".fake";
        disc_f.act[i] = b.transient(
            tag + ".act", std::max<std::uint64_t>(
                              act_total / 4 / spec.layers, 64 * 1024));
        disc_f.gact[i] = b.transient(
            tag + ".gact", std::max<std::uint64_t>(
                               act_total / 4 / spec.layers, 64 * 1024));
    }

    torch::TensorId real = b.transient(
        "real_batch",
        std::max<std::uint64_t>(act_total / 8, 64 * 1024),
        torch::TensorKind::Input);
    torch::TensorId noise = b.transient(
        "noise", std::max<std::uint64_t>(batch * 512, 64 * 1024),
        torch::TensorKind::Input);
    torch::TensorId gd_real = b.transient(
        "gd_real", std::max<std::uint64_t>(batch * 256, 64 * 1024));
    torch::TensorId gd_fake = b.transient(
        "gd_fake", std::max<std::uint64_t>(batch * 256, 64 * 1024));
    torch::TensorId g_fake_img = b.transient(
        "g_fake_img", std::max<std::uint64_t>(act_total / 8, 64 * 1024));

    // ---- train D on real ----------------------------------------------
    b.alloc(real);
    forward(b, disc_r, real, "d_conv_fwd");
    b.alloc(gd_real);
    b.kernel("d_loss_real", {disc_r.act.back()}, {gd_real}, 0.2);
    backward(b, disc_r, real, gd_real, torch::kNoTensor, "d_conv_bwd",
             true);
    b.release(gd_real);
    b.release(real);

    // ---- G forward (fake batch) ----------------------------------------
    b.alloc(noise);
    forward(b, gen, noise, "g_deconv_fwd");

    // ---- train D on fake ------------------------------------------------
    forward(b, disc_f, gen.act.back(), "d_conv_fwd_fake");
    b.alloc(gd_fake);
    b.kernel("d_loss_fake", {disc_f.act.back()}, {gd_fake}, 0.2);
    b.alloc(g_fake_img);
    backward(b, disc_f, gen.act.back(), gd_fake, g_fake_img,
             "d_conv_bwd_fake", true);
    b.release(gd_fake);

    // ---- train G through D's input gradient ----------------------------
    backward(b, gen, noise, g_fake_img, torch::kNoTensor,
             "g_deconv_bwd", true);
    b.release(g_fake_img);
    b.release(noise);

    // ---- both optimizers ------------------------------------------------
    b.optAll();

    return b.take();
}

DcganSpec
dcganSpec()
{
    DcganSpec s;
    s.paramBytes = 10 * kMiB;
    s.actPerSampleBytes = 40 * 1024;
    s.ai = 0.25;
    return s;
}

} // namespace deepum::models
