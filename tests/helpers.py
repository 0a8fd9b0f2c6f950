"""Shared test oracles: central finite differences and small builders."""

from __future__ import annotations

import numpy as np

from netmamba import autodiff as ad


def numeric_grads(f, wrt, eps: float = 1e-4) -> list[np.ndarray]:
    """Central-difference gradients of the scalar ``f()`` wrt each tensor.

    ``f`` must rebuild its computation from the tensors' current data on
    every call; evaluation runs with graph recording off.
    """
    grads = []
    with ad.no_grad():
        for t in wrt:
            g = np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            gf = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = float(f().data)
                flat[i] = orig - eps
                fm = float(f().data)
                flat[i] = orig
                gf[i] = (fp - fm) / (2.0 * eps)
            grads.append(g)
    return grads


def max_rel_err(f, wrt, eps: float = 1e-4) -> float:
    """max over entries of |analytic - numeric| / (|numeric| + 1e-8)."""
    for t in wrt:
        t.grad = None
    loss = f()
    ad.backward(loss)
    worst = 0.0
    for t, num in zip(wrt, numeric_grads(f, wrt, eps)):
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        rel = np.abs(analytic - num) / (np.abs(num) + 1e-8)
        if rel.size:
            worst = max(worst, float(rel.max()))
    return worst


def rand_tensor(rng, *shape, scale: float = 1.0) -> ad.Tensor:
    return ad.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)



def causal_conv1d(x, weight, bias=None) -> ad.Tensor:
    """Oracle: the per-channel causal convolution on (B, L, E) without the
    SiLU that ``ad.causal_conv1d`` applies, as a graph op of its own.

    ``weight[e, j]`` multiplies the input j steps in the past, so a kernel of
    (1, 0, ..., 0) is the identity; positions before the sequence start read
    zeros.
    """
    x, weight = ad.as_tensor(x), ad.as_tensor(weight)
    xd, wd = x.data, weight.data
    L, k = xd.shape[1], wd.shape[1]
    out = np.zeros_like(xd)
    for j in range(min(k, L)):
        out[:, j:, :] += xd[:, :L - j, :] * wd[:, j]
    parents = [x, weight]
    if bias is not None:
        bias = ad.as_tensor(bias)
        out = out + bias.data
        parents.append(bias)

    def vjp(g):
        gx = np.zeros_like(xd)
        gw = np.zeros_like(wd)
        for j in range(min(k, L)):
            gx[:, :L - j, :] += g[:, j:, :] * wd[:, j]
            gw[:, j] = np.einsum("ble,ble->e", g[:, j:, :], xd[:, :L - j, :])
        return [gx, gw] + ([g.sum(axis=(0, 1))] if bias is not None else [])

    return ad.custom_op(out, parents, vjp)

# ---------------------------------------------------------------------------
# hand-rolled packet builders (fixtures are always constructed byte-by-byte)

import ipaddress
import struct

from netmamba.pcap import RawPacket


def eth_frame(payload: bytes, ethertype: int, vlan_tcis=()) -> bytes:
    frame = bytes(range(6)) + bytes(range(6, 12))
    for tci in vlan_tcis:
        frame += struct.pack(">HH", 0x8100, tci)
    return frame + struct.pack(">H", ethertype) + payload


def ipv4_packet(payload: bytes, proto: int, src="10.0.0.1", dst="10.0.0.2",
                options: bytes = b"", ttl: int = 64) -> bytes:
    assert len(options) % 4 == 0
    ihl = 5 + len(options) // 4
    total = ihl * 4 + len(payload)
    header = struct.pack(
        ">BBHHHBBH4s4s", (4 << 4) | ihl, 0, total, 0x1234, 0, ttl, proto, 0,
        ipaddress.IPv4Address(src).packed, ipaddress.IPv4Address(dst).packed)
    return header + options + payload


def ipv6_packet(payload: bytes, next_header: int, src="2001:db8::1",
                dst="2001:db8::2") -> bytes:
    header = struct.pack(
        ">IHBB16s16s", 6 << 28, len(payload), next_header, 64,
        ipaddress.IPv6Address(src).packed, ipaddress.IPv6Address(dst).packed)
    return header + payload


def tcp_segment(payload: bytes, sport: int, dport: int,
                options: bytes = b"") -> bytes:
    assert len(options) % 4 == 0
    doff = 5 + len(options) // 4
    header = struct.pack(">HHIIBBHHH", sport, dport, 1000, 2000,
                         doff << 4, 0x18, 8192, 0, 0)
    return header + options + payload


def udp_datagram(payload: bytes, sport: int, dport: int) -> bytes:
    return struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload


def raw(link_bytes: bytes, ts_sec: int = 0, ts_nsec: int = 0) -> RawPacket:
    return RawPacket(ts_sec=ts_sec, ts_nsec=ts_nsec, link_bytes=link_bytes,
                     orig_len=len(link_bytes))


def tcp_flow_packet(seq: int, sport=40000, dport=443, src="10.0.0.1",
                    dst="10.0.0.2", payload=b"") -> RawPacket:
    segment = tcp_segment(payload, sport, dport)
    return raw(eth_frame(ipv4_packet(segment, 6, src, dst), 0x0800),
               ts_sec=seq, ts_nsec=0)
