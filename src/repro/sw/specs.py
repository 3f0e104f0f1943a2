"""The lightbulb's trace specification (paper section 3.1).

This is our rendition of the paper's one-page application-level promise:

    goodHlTrace :=
      BootSeq +++ ((EX b: bool, Recv b +++ LightbulbCmd b)
                   ||| RecvInvalid ||| PollNone ||| DeviceFail) ^*

built bottom-up from the SPI wire protocol exactly as the software is: an
``spi_xchg`` transaction, LAN9250 word reads/writes over it, the boot
incantations, and finally the three event-loop behaviors. The existential
``EX b`` ties the GPIO write to the *command bit captured from the packet
bytes on the wire* -- the security property: the bulb changes state only
as commanded by a valid UDP packet.

Like the paper's, the spec is deliberately lax where laxness is safe
(e.g. it does not bound how many busy polls a transfer may take), and the
``DeviceFail`` arms cover driver timeouts, which exist because the paper
proves *total* correctness.
"""

from __future__ import annotations

from ..traces.predicates import (
    Exists,
    Guard,
    RepeatN,
    Star,
    TracePred,
    ld,
    seq,
    st,
    union,
    value_is,
    value_where,
)
from . import constants as C
from .lightbulb import (
    ETHERTYPE_IPV4,
    IP_PROTO_UDP,
    MIN_VALID_LENGTH,
    OFF_CMD,
    OFF_ETHERTYPE,
    OFF_IP_PROTO,
)

FLAG = 1 << 31


# -- SPI layer -------------------------------------------------------------------

def _tx_busy():
    return ld(C.SPI_TXDATA_ADDR, value_where(lambda v: v & FLAG),
              "txdata busy")


def _tx_clear():
    return ld(C.SPI_TXDATA_ADDR, value_where(lambda v: not (v & FLAG)),
              "txdata clear")


def _rx_empty():
    return ld(C.SPI_RXDATA_ADDR, value_where(lambda v: v & FLAG),
              "rxdata empty")


def spi_write_ok(byte_fn) -> TracePred:
    """Busy-polls, then the store of the byte. ``byte_fn(value, env)``
    constrains/captures the written byte."""
    return seq(Star(_tx_busy()), _tx_clear(),
               st(C.SPI_TXDATA_ADDR, byte_fn, "tx byte"))


def spi_read_ok(value_fn) -> TracePred:
    return seq(Star(_rx_empty()),
               ld(C.SPI_RXDATA_ADDR,
                  lambda v, env: value_fn(v & 0xFF, env) if not (v & FLAG) else None,
                  "rx byte"))


def _accept(v, env):
    return env


def xchg_ok(tx_fn, rx_fn=_accept) -> TracePred:
    return spi_write_ok(tx_fn) + spi_read_ok(rx_fn)


def xchg_const(byte: int) -> TracePred:
    return xchg_ok(value_is(byte & 0xFF))


def spi_write_timeout() -> TracePred:
    busy = _tx_busy()
    return RepeatN(lambda env: C.SPI_PATIENCE, lambda i: busy)


def spi_read_timeout() -> TracePred:
    empty = _rx_empty()
    return RepeatN(lambda env: C.SPI_PATIENCE, lambda i: empty)


def xchg_fail(tx_fn) -> TracePred:
    return union(spi_write_timeout(),
                 spi_write_ok(tx_fn) + spi_read_timeout())


# -- LAN9250 word transactions over SPI --------------------------------------------

def _cs_hold():
    return st(C.SPI_CSMODE_ADDR, value_is(C.CSMODE_HOLD), "cs hold")


def _cs_auto():
    return st(C.SPI_CSMODE_ADDR, value_is(C.CSMODE_AUTO), "cs auto")


def _addr_bytes(addr: int):
    return [xchg_const((addr >> 8) & 0xFF), xchg_const(addr & 0xFF)]


def _capture_byte(name: str):
    def fn(v, env):
        new = dict(env)
        new[name] = v & 0xFF
        return new
    return fn


def lan_readword(addr: int, word_fn) -> TracePred:
    """A successful fast-read of one register. ``word_fn(value, env)``
    constrains/captures the assembled little-endian word."""

    def assemble(env):
        return (env["_b0"] | (env["_b1"] << 8) | (env["_b2"] << 16)
                | (env["_b3"] << 24))

    def guard(env):
        return word_fn(assemble(env), env) is not None

    def rebind(env):
        new = word_fn(assemble(env), env)
        return new if new is not None else env

    # Guard keeps match semantics; we thread the capture via a Step-less
    # Guard that mutates env through word_fn's return.
    class _Bind(Guard):
        def residuals(self, trace, start, env):
            new = word_fn(assemble(env), env)
            if new is not None:
                yield start, new

        def partial(self, trace, start, env):
            return start == len(trace)

    return seq(
        _cs_hold(),
        xchg_const(C.CMD_FAST_READ),
        *_addr_bytes(addr),
        xchg_const(0),  # dummy
        xchg_ok(value_is(0), _capture_byte("_b0")),
        xchg_ok(value_is(0), _capture_byte("_b1")),
        xchg_ok(value_is(0), _capture_byte("_b2")),
        xchg_ok(value_is(0), _capture_byte("_b3")),
        _Bind(lambda env: True),
        _cs_auto(),
    )


def lan_readword_fail(addr: int) -> TracePred:
    """A register read aborted by an SPI timeout at any stage."""
    prefix_steps = [xchg_const(C.CMD_FAST_READ)] + _addr_bytes(addr) \
        + [xchg_const(0)] * 5
    tx_values = ([C.CMD_FAST_READ, (addr >> 8) & 0xFF, addr & 0xFF]
                 + [0] * 5)
    arms = []
    for k in range(len(prefix_steps)):
        arms.append(seq(_cs_hold(), *prefix_steps[:k],
                        xchg_fail(value_is(tx_values[k])), _cs_auto()))
    return union(*arms)


def lan_writeword(addr: int, value_fn) -> TracePred:
    def byte_of(i):
        def fn(v, env):
            new = dict(env)
            new["_wb%d" % i] = v & 0xFF
            return new
        return fn

    class _Check(Guard):
        def residuals(self, trace, start, env):
            word = (env["_wb0"] | (env["_wb1"] << 8) | (env["_wb2"] << 16)
                    | (env["_wb3"] << 24))
            new = value_fn(word, env)
            if new is not None:
                yield start, new

        def partial(self, trace, start, env):
            return start == len(trace)

    return seq(
        _cs_hold(),
        xchg_const(C.CMD_WRITE),
        *_addr_bytes(addr),
        xchg_ok(byte_of(0)), xchg_ok(byte_of(1)),
        xchg_ok(byte_of(2)), xchg_ok(byte_of(3)),
        _Check(lambda env: True),
        _cs_auto(),
    )


def lan_writeword_fail(addr: int) -> TracePred:
    prefix = [xchg_const(C.CMD_WRITE)] + _addr_bytes(addr)
    tx_values = [C.CMD_WRITE, (addr >> 8) & 0xFF, addr & 0xFF]
    arms = []
    for k in range(8):
        if k < 3:
            arms.append(seq(_cs_hold(), *prefix[:k],
                            xchg_fail(value_is(tx_values[k])), _cs_auto()))
        else:
            # Failure while clocking a data byte (value unconstrained).
            arms.append(seq(_cs_hold(), *prefix,
                            *[xchg_ok(_accept)] * (k - 3),
                            xchg_fail(lambda v, env: env), _cs_auto()))
    return union(*arms)


# -- BootSeq (paper: "a series of incantations mandated by the Ethernet
#    controller") ------------------------------------------------------------------

def boot_seq() -> TracePred:
    gpio_setup = st(C.GPIO_OUTPUT_EN_ADDR,
                    value_is(1 << C.LIGHTBULB_PIN), "gpio enable")
    byte_test_wrong = lan_readword(
        C.LAN_BYTE_TEST,
        lambda v, env: env if v != C.BYTE_TEST_VALUE else None)
    byte_test_right = lan_readword(C.LAN_BYTE_TEST,
                                   lambda v, env: env
                                   if v == C.BYTE_TEST_VALUE else None)
    byte_test_attempt = union(byte_test_wrong,
                              lan_readword_fail(C.LAN_BYTE_TEST))
    wait_boot_ok = Star(byte_test_attempt) + byte_test_right
    wait_boot_fail = Star(byte_test_attempt)

    hw_cfg_not_ready = lan_readword(
        C.LAN_HW_CFG,
        lambda v, env: env if not ((v >> C.HW_CFG_READY_BIT) & 1) else None)
    hw_cfg_ready = lan_readword(
        C.LAN_HW_CFG,
        lambda v, env: env if (v >> C.HW_CFG_READY_BIT) & 1 else None)
    hw_attempt = union(hw_cfg_not_ready, lan_readword_fail(C.LAN_HW_CFG))
    wait_ready_ok = Star(hw_attempt) + hw_cfg_ready
    wait_ready_fail = Star(hw_attempt)

    mac_enable = seq(
        lan_writeword(C.LAN_MAC_CSR_DATA, value_is(C.MAC_CR_RXEN)),
        lan_writeword(C.LAN_MAC_CSR_CMD,
                      value_is(C.MAC_CSR_BUSY | C.MAC_CR)),
    )
    mac_enable_fail = union(
        lan_writeword_fail(C.LAN_MAC_CSR_DATA),
        lan_writeword(C.LAN_MAC_CSR_DATA, value_is(C.MAC_CR_RXEN))
        + lan_writeword_fail(C.LAN_MAC_CSR_CMD),
    )

    init_ok = wait_boot_ok + wait_ready_ok + mac_enable
    init_fail = union(wait_boot_fail,
                      wait_boot_ok + wait_ready_fail,
                      wait_boot_ok + wait_ready_ok + mac_enable_fail)
    return gpio_setup + union(init_ok, init_fail)


# -- event-loop iterations ------------------------------------------------------------

def _fifo_inf(frames_fn) -> TracePred:
    return lan_readword(C.LAN_RX_FIFO_INF, frames_fn)


def poll_none() -> TracePred:
    """PollNone: the Ethernet card reports no pending frame."""
    return _fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) == 0 else None)


def _status_capture(v, env):
    new = dict(env)
    new["len"] = (v >> 16) & 0x3FFF
    return new


def _drain(capture_cmd: bool) -> TracePred:
    """ceil(len/4) data-FIFO reads, capturing the validation words."""
    interesting = {OFF_ETHERTYPE // 4: "w_ethertype",
                   OFF_IP_PROTO // 4: "w_proto",
                   OFF_CMD // 4: "w_cmd"}

    def body(i: int) -> TracePred:
        name = interesting.get(i) if capture_cmd else None
        if name is None:
            return lan_readword(C.LAN_RX_DATA_FIFO, _accept)

        def cap(v, env):
            new = dict(env)
            new[name] = v
            return new

        return lan_readword(C.LAN_RX_DATA_FIFO, cap)

    return RepeatN(lambda env: (env["len"] + 3) >> 2, body)


def _frame_valid(env) -> bool:
    if env["len"] < MIN_VALID_LENGTH:
        return False
    ethertype = ((env["w_ethertype"] >> (8 * (OFF_ETHERTYPE % 4))) & 0xFF) << 8 \
        | ((env["w_ethertype"] >> (8 * ((OFF_ETHERTYPE + 1) % 4))) & 0xFF)
    if ethertype != ETHERTYPE_IPV4:
        return False
    proto = (env["w_proto"] >> (8 * (OFF_IP_PROTO % 4))) & 0xFF
    return proto == IP_PROTO_UDP


def _cmd_bit(env) -> int:
    return (env["w_cmd"] >> (8 * (OFF_CMD % 4))) & 1


def recv(b: int) -> TracePred:
    """Recv b: a well-formed frame whose command bit is ``b`` arrives."""
    return seq(
        _fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) != 0 else None),
        lan_readword(C.LAN_RX_STATUS_FIFO, _status_capture),
        Guard(lambda env: env["len"] <= C.RX_BUFFER_BYTES, "fits buffer"),
        _drain(capture_cmd=True),
        Guard(lambda env: _frame_valid(env) and _cmd_bit(env) == b,
              "valid command %d" % b),
    )


def lightbulb_cmd(b: int) -> TracePred:
    """LightbulbCmd b: the actuation the application owes for Recv b."""
    return st(C.GPIO_OUTPUT_VAL_ADDR, value_is((b & 1) << C.LIGHTBULB_PIN),
              "bulb := %d" % b)


def recv_invalid() -> TracePred:
    """RecvInvalid: a frame arrives but is ignored -- oversize (rejected by
    the driver before any FIFO read) or drained but failing validation."""
    oversize = seq(
        _fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) != 0 else None),
        lan_readword(C.LAN_RX_STATUS_FIFO, _status_capture),
        Guard(lambda env: env["len"] > C.RX_BUFFER_BYTES, "oversize"),
        # The driver dumps the RX FIFOs instead of draining the frame.
        union(lan_writeword(C.LAN_RX_CFG, value_is(C.RX_CFG_RX_DUMP)),
              lan_writeword_fail(C.LAN_RX_CFG)),
    )
    malformed = seq(
        _fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) != 0 else None),
        lan_readword(C.LAN_RX_STATUS_FIFO, _status_capture),
        Guard(lambda env: env["len"] <= C.RX_BUFFER_BYTES, "fits buffer"),
        _drain(capture_cmd=True),
        Guard(lambda env: not _frame_valid(env), "fails validation"),
    )
    return union(oversize, malformed)


def device_fail() -> TracePred:
    """DeviceFail: an iteration cut short by an SPI/device timeout. Exists
    because the drivers are *total*: they give up rather than spin."""
    inf_ok = _fifo_inf(lambda v, env: env if ((v >> 16) & 0xFF) != 0 else None)
    status_ok = lan_readword(C.LAN_RX_STATUS_FIFO, _status_capture)
    fits = Guard(lambda env: env["len"] <= C.RX_BUFFER_BYTES, "fits buffer")

    read_fail = lan_readword_fail(C.LAN_RX_DATA_FIFO)
    read_ok = lan_readword(C.LAN_RX_DATA_FIFO, _accept)

    def drain_fail(done: int) -> TracePred:
        # A failing data read after ``done`` successful ones, while
        # done < ceil(len/4); ``_drained`` counts the successful reads.
        return seq(Guard(lambda env: done < (env["len"] + 3) >> 2,
                         "drained %d" % done),
                   union(read_fail, read_ok + Exists("_drained", (done + 1,),
                                                     drain_fail)))

    return union(
        lan_readword_fail(C.LAN_RX_FIFO_INF),
        inf_ok + lan_readword_fail(C.LAN_RX_STATUS_FIFO),
        inf_ok + status_ok + fits + drain_fail(0),
    )


# -- the top-level specification -------------------------------------------------------

def iteration() -> TracePred:
    """One event-loop iteration's allowed behaviors."""
    return union(
        Exists("b", (0, 1), lambda b: recv(b) + lightbulb_cmd(b)),
        recv_invalid(),
        poll_none(),
        device_fail(),
    )


def good_hl_trace() -> TracePred:
    """``goodHlTrace`` (paper section 3.1): the whole system's promise."""
    return boot_seq() + Star(iteration())
