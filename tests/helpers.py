"""Shared test oracles: central finite differences, the plain scan and its
reference forms, and small builders."""

from __future__ import annotations

import math

import numpy as np

from netmamba import autodiff as ad
from netmamba import ssm
from netmamba.errors import ContractError


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
# the plain scan h_t = exp(dt_t*A) * h_{t-1} + dt_t*B_t*x_t, y_t = <C_t, h_t>:
# reference forms, the oracle op, and the src op made to compute it


def random_instance(rng, B=2, L=8, E=3, N=2, time_invariant=False):
    """Plain-scan inputs (dt, a, b, c, x) with dt in [0.05, 1] and A < 0."""
    def draw(shape):
        return rng.uniform(0.05, 1.0, size=shape)

    if time_invariant:
        delta = np.tile(draw((B, 1, E)), (1, L, 1))
        b_in = np.tile(rng.standard_normal((B, 1, N)), (1, L, 1))
        c = np.tile(rng.standard_normal((B, 1, N)), (1, L, 1))
    else:
        delta = draw((B, L, E))
        b_in = rng.standard_normal((B, L, N))
        c = rng.standard_normal((B, L, N))
    a = -rng.uniform(0.2, 2.0, size=(E, N))
    x = rng.standard_normal((B, L, E))
    return delta, a, b_in, c, x


def discretize_loop_oracle(delta, a, b_in):
    B, L, E = delta.shape
    N = a.shape[1]
    abar = np.empty((B, L, E, N))
    bbar = np.empty((B, L, E, N))
    for b in range(B):
        for l in range(L):
            for e in range(E):
                for n in range(N):
                    abar[b, l, e, n] = math.exp(delta[b, l, e] * a[e, n])
                    bbar[b, l, e, n] = delta[b, l, e] * b_in[b, l, n]
    return abar, bbar


def direct_scan_oracle(abar, bbar, c, x):
    """O(L^2) expansion of the recurrence; works for time-varying inputs."""
    B, L, E, N = abar.shape
    y = np.zeros((B, L, E))
    for t in range(L):
        for s in range(t + 1):
            prod = np.ones((B, E, N))
            for u in range(s + 1, t + 1):
                prod = prod * abar[:, u]
            contrib = prod * bbar[:, s] * x[:, s][..., None]
            y[:, t] += np.einsum("bn,ben->be", c[:, t], contrib)
    return y


def conv_form_oracle(abar, bbar, c, x):
    """Convolutional form of the recurrence, valid only when the discrete
    parameters are constant along the sequence axis: materializes the kernel
    (C Bbar, C Abar Bbar, ..., C Abar^{L-1} Bbar) and convolves. Raises on
    time-varying inputs.
    """
    abar = np.asarray(abar, dtype=np.float64)
    bbar = np.asarray(bbar, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    B, L, E, N = abar.shape
    for name, arr in (("abar", abar), ("bbar", bbar), ("c", c)):
        if not np.array_equal(arr, np.broadcast_to(arr[:, :1], arr.shape)):
            raise ContractError(f"conv_form_oracle requires time-invariant {name}")
    a0, b0, c0 = abar[:, 0], bbar[:, 0], c[:, 0]   # (B,E,N), (B,E,N), (B,N)
    powers = np.ones_like(a0)
    kernel = np.empty((L, B, E))
    for j in range(L):
        kernel[j] = np.einsum("bn,ben->be", c0, powers * b0)
        powers = powers * a0
    y = np.zeros((B, L, E))
    for t in range(L):
        for j in range(t + 1):
            y[:, t] += kernel[j] * x[:, t - j]
    return y


def unflushed_scan(dt, a, b, c, x, g):
    """Reference forward and backward pass of the plain scan over a full
    state history, with no subnormal flush: the arithmetic of
    ``ssm.selective_scan``'s recurrence in the same order, so it matches
    the op bit for bit wherever the flush changes nothing. Returns y, the
    gradients wrt (dt, a, b, c, x) for the upstream gradient g and the
    number of subnormal adjoint entries it carried."""
    B, L, E = dt.shape
    tiny = np.finfo(dt.dtype).tiny
    At = np.ascontiguousarray(a.T)
    D, U, Bm, C, gy = (np.moveaxis(v, 1, 0) for v in (dt, dt * x, b, c, g))
    abar = np.exp(np.einsum("lbe,ne->lbne", D, At))
    h = np.zeros((L + 1,) + abar.shape[1:], dtype=dt.dtype)   # h[t + 1] = h_t
    for t in range(L):
        h[t + 1] = abar[t] * h[t] + np.einsum("bn,be->bne", Bm[t], U[t])
    y = np.moveaxis(np.matmul(C[:, :, None, :], h[1:])[:, :, 0], 0, 1)
    g_c = np.matmul(h[1:], gy[..., None])[..., 0]
    g_u, g_b = np.empty_like(D), np.empty_like(Bm)
    g_dt, g_a, acc = np.zeros_like(D), np.zeros_like(h[0]), np.zeros_like(h[0])
    subnormal = 0
    for t in reversed(range(L)):
        acc += np.einsum("bn,be->bne", C[t], gy[t])
        g_u[t] = np.matmul(Bm[t][:, None, :], acc)[:, 0]
        g_b[t] = np.matmul(acc, U[t][:, :, None])[..., 0]
        acc *= abar[t]
        subnormal += np.count_nonzero((acc != 0) & (np.abs(acc) < tiny))
        if t:
            s = acc * h[t]
            g_dt[t] = np.einsum("bne,ne->be", s, At)
            g_a += s * D[t][:, None, :]
    g_dt += g_u * np.moveaxis(x, 1, 0)
    g_dt, g_b, g_c, g_x = (np.moveaxis(v, 0, 1) for v in (g_dt, g_b, g_c, g_u * D))
    return y, [g_dt, g_a.sum(0).T, g_b, g_c, g_x], subnormal


def plain_scan(dt, a, b, c, x) -> ad.Tensor:
    """Oracle: the plain scan as a graph op of its own, dt (B, L, E) being
    the step itself; forward and backward by ``unflushed_scan``."""
    arrays = [t.data for t in (dt, a, b, c, x)]
    y = unflushed_scan(*arrays, np.zeros_like(arrays[4]))[0]
    return ad.custom_op(y, (dt, a, b, c, x), lambda g: unflushed_scan(*arrays, g)[1])


def softplus_inverse(dt):
    """The raw step whose softplus is dt > 0."""
    return dt + np.log(-np.expm1(-dt))


def identity_layout(dt_low, a, b, c, x) -> tuple:
    """``ssm.selective_scan``'s nine inputs that make it the plain scan with
    step softplus(dt_low): R = D = E, w_dt_up = I, dt_bias = 0, z = 64 and
    w_out = I/64. silu(64) is exactly 64 in float32 and float64 and every
    GEMM against these projections is exact, so the op returns y, and the
    adjoint its recurrence carries is the upstream gradient, bit for bit.
    z has c's rows, so a tail scan takes them too."""
    E, dtype = x.shape[-1], x.dtype
    eye = np.eye(E, dtype=dtype)
    return (dt_low, a, b, c, x, ad.Tensor(np.zeros(E, dtype=dtype)),
            ad.Tensor(np.full(c.shape[:2] + (E,), 64.0, dtype=dtype)),
            ad.Tensor(eye), ad.Tensor(eye / 64))


def identity_scan(dt_low, a, b, c, x, **kwargs) -> ad.Tensor:
    """``ssm.selective_scan`` through ``identity_layout``: the plain scan
    of step softplus(dt_low), (B, T, E)."""
    return ssm.selective_scan(*identity_layout(dt_low, a, b, c, x), **kwargs)


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


# ---------------------------------------------------------------------------
# the dissection oracle: the byte-at-a-time reading of each header field,
# over a copy of the IP datagram, that ``traffic.classify_and_strip`` must
# agree with frame for frame

from netmamba.errors import MalformedPacketError
from netmamba.traffic import (
    DHCP_PORTS, ETHERTYPE_IPV4, ETHERTYPE_IPV6, PROTO_TCP, PROTO_UDP,
    VLAN_TPIDS, AssemblyStats, Datagram, FiveTuple, FlowRecord, ReprConfig,
)

V6_EXTENSIONS = frozenset((0, 43, 44, 60, 51))


def canonical(src_ip: bytes, src_port: int, dst_ip: bytes, dst_port: int,
              protocol: int) -> FiveTuple:
    """The flow key of both directions: the endpoint (ip, port) that sorts
    first becomes (ip_a, port_a)."""
    if src_ip < dst_ip or (src_ip == dst_ip and src_port <= dst_port):
        return FiveTuple(src_ip, src_port, dst_ip, dst_port, protocol)
    return FiveTuple(dst_ip, dst_port, src_ip, src_port, protocol)


def reference_dissect(packet: RawPacket, drop_dhcp: bool = True):
    """Oracle for ``classify_and_strip``: the same key and ``Datagram``, the
    same None, or a MalformedPacketError with the same message."""
    ts_sec, ts_nsec, data, _ = packet
    if len(data) < 14:
        raise MalformedPacketError(
            f"packet of {len(data)} bytes is shorter than an Ethernet header")
    off = 14
    ethertype = data[12] << 8 | data[13]
    while ethertype in VLAN_TPIDS:
        off += 4
        if off > len(data):
            raise MalformedPacketError("truncated VLAN tag chain")
        ethertype = data[off - 2] << 8 | data[off - 1]
    if ethertype != ETHERTYPE_IPV4 and ethertype != ETHERTYPE_IPV6:
        return None
    ip_bytes = data[off:]
    size = len(ip_bytes)
    version, proto, t_off = _reference_transport_offset(ip_bytes)
    if proto == PROTO_TCP:
        if t_off + 13 > size:
            raise MalformedPacketError("TCP header truncated before data offset")
        doff = (ip_bytes[t_off + 12] >> 4) * 4
        if doff < 20:
            raise MalformedPacketError(f"TCP data offset of {doff} bytes is invalid")
        end = t_off + doff
    elif proto == PROTO_UDP:
        end = t_off + 8
    else:
        end = t_off
    if end > size:
        raise MalformedPacketError(
            f"declared header length {end} exceeds packet of {size}")
    sport = dport = 0
    if proto == PROTO_TCP or proto == PROTO_UDP:
        sport = ip_bytes[t_off] << 8 | ip_bytes[t_off + 1]
        dport = ip_bytes[t_off + 2] << 8 | ip_bytes[t_off + 3]
        if (drop_dhcp and proto == PROTO_UDP
                and (sport in DHCP_PORTS or dport in DHCP_PORTS)):
            return None
    if version == 4:
        length_field = declared = ip_bytes[2] << 8 | ip_bytes[3]
        src, dst = ip_bytes[12:16], ip_bytes[16:20]
    else:
        length_field = ip_bytes[4] << 8 | ip_bytes[5]
        declared = 40 + length_field
        src, dst = ip_bytes[8:24], ip_bytes[24:40]
    if length_field and end <= declared < size:
        ip_bytes = ip_bytes[:declared]
    return (canonical(src, sport, dst, dport, proto),
            Datagram((ts_sec, ts_nsec), ip_bytes, end))


def reference_assemble(packets, cfg: ReprConfig
                       ) -> tuple[list[FlowRecord], AssemblyStats]:
    """Oracle for ``assemble_flows``: every frame's ``Datagram`` from
    ``reference_dissect``, held per flow in first-seen order, then each
    flow's first M of a stable sort by capture time, and the stats."""
    stats = AssemblyStats()
    every: dict[FiveTuple, list[Datagram]] = {}
    for packet in packets:
        try:
            dissected = reference_dissect(packet, cfg.drop_dhcp)
        except MalformedPacketError:
            stats.malformed_packets += 1
            continue
        if dissected is None:
            stats.skipped_packets += 1
            continue
        key, datagram = dissected
        every.setdefault(key, []).append(datagram)
    stats.kept_packets = sum(len(datagrams) for datagrams in every.values())
    flows = [FlowRecord(key, sorted(datagrams, key=lambda d: d.time)
                        [:cfg.packets_per_flow], len(datagrams))
             for key, datagrams in every.items()]
    return flows, stats


def _reference_transport_offset(ip_bytes: bytes) -> tuple[int, int, int]:
    """(IP version, protocol, offset of the transport header)."""
    if not ip_bytes:
        raise MalformedPacketError("empty IP packet")
    version = ip_bytes[0] >> 4
    if version not in (4, 6):
        raise MalformedPacketError(f"IP version nibble is {version}, not 4 or 6")
    if version == 4:
        if len(ip_bytes) < 20:
            raise MalformedPacketError("IPv4 packet shorter than 20 bytes")
        ihl = (ip_bytes[0] & 0x0F) * 4
        if ihl < 20:
            raise MalformedPacketError(f"IPv4 IHL of {ihl} bytes is invalid")
        if ihl > len(ip_bytes):
            raise MalformedPacketError(
                f"IPv4 header length {ihl} exceeds packet of {len(ip_bytes)}")
        return 4, ip_bytes[9], ihl
    if len(ip_bytes) < 40:
        raise MalformedPacketError("IPv6 packet shorter than 40 bytes")
    proto = ip_bytes[6]
    off = 40
    while proto in V6_EXTENSIONS:
        if off + 2 > len(ip_bytes):
            raise MalformedPacketError(
                f"IPv6 extension chain exceeds packet at offset {off}")
        nxt = ip_bytes[off]
        if proto == 44:          # fragment header: fixed 8 bytes
            ext_len = 8
        elif proto == 51:        # AH counts in 4-byte units
            ext_len = (ip_bytes[off + 1] + 2) * 4
        else:
            ext_len = (ip_bytes[off + 1] + 1) * 8
        off += ext_len
        if off > len(ip_bytes):
            raise MalformedPacketError(
                f"IPv6 extension header length exceeds packet at offset {off}")
        proto = nxt
    return 6, proto, off


# ---------------------------------------------------------------------------
# the capture oracle: the whole-file reading of a classic pcap, every record
# copied into one list, that ``pcap.parse_capture`` must agree with record
# for record and error for error

from pathlib import Path

from netmamba.errors import ParseError, UnsupportedFormatError
from netmamba.pcap import LINKTYPE_ETHERNET, MAGIC_NS, MAGIC_US, parse_capture


def read_records(path) -> list[RawPacket]:
    """``parse_capture(path)``'s records, read by iteration alone: ``list()``
    of a capture would first ask its ``len()``, which iterates it once more."""
    return [packet for packet in parse_capture(path)]


def reference_parse_capture(path) -> list[RawPacket]:
    """Oracle for ``parse_capture``: the file read whole, then cut into
    records; the same errors with the same messages."""
    blob = Path(path).read_bytes()
    if len(blob) < 24:
        raise ParseError(f"{path}: truncated global header at offset 0 "
                         f"(need 24 bytes, have {len(blob)})")
    magics = {struct.pack(order + "I", magic): (order, frac_to_ns)
              for order in "<>"
              for magic, frac_to_ns in ((MAGIC_US, 1000), (MAGIC_NS, 1))}
    try:
        order, frac_to_ns = magics[blob[:4]]
    except KeyError:
        raise UnsupportedFormatError(
            f"{path}: unknown capture magic {blob[:4].hex()}") from None
    linktype = struct.unpack(order + "I", blob[20:24])[0]
    if linktype != LINKTYPE_ETHERNET:
        raise UnsupportedFormatError(
            f"{path}: unsupported link type {linktype} (only Ethernet/1)")
    packets = []
    off = 24
    while off < len(blob):
        if off + 16 > len(blob):
            raise ParseError(f"{path}: truncated record header at offset {off}")
        ts_sec, ts_frac, incl_len, orig_len = struct.unpack_from(
            order + "IIII", blob, off)
        start = off + 16
        off = start + incl_len
        if off > len(blob):
            raise ParseError(
                f"{path}: truncated record at offset {start} "
                f"(declared {incl_len} bytes, {len(blob) - start} remain)")
        packets.append(RawPacket(ts_sec, ts_frac * frac_to_ns,
                                 blob[start:off], orig_len))
    return packets


class ReadSpy:
    """Stands in for ``open`` in a module: the files it opens record the
    size asked of each ``read`` in ``sizes``."""

    def __init__(self):
        self.sizes: list[int] = []

    def __call__(self, *args):
        return _SpiedFile(open(*args), self.sizes)


class _SpiedFile:
    def __init__(self, fh, sizes):
        self._fh, self._sizes = fh, sizes

    def read(self, size=-1):
        self._sizes.append(size)
        return self._fh.read(size)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()
