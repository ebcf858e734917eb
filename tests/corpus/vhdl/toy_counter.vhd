-- toy_counter: eHDL-generated pipeline (15 stages, 11 blocks)
-- top: ehdl_toy_counter
-- window plan (bytes per link): 64 64 64 64 64 64 64 64 64 64 64 64 64 64 64 64
-- enable width: 32  frame size: 64

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package ehdl_pkg is
  -- byte-order and division blocks; the RTL simulator binds these
  -- declarations to behavioural builtins (div by zero yields 0,
  -- rem by zero yields the dividend, as the eBPF ISA requires).
  function ehdl_bswap16(v : std_logic_vector(63 downto 0)) return std_logic_vector;
  function ehdl_bswap32(v : std_logic_vector(63 downto 0)) return std_logic_vector;
  function ehdl_bswap64(v : std_logic_vector(63 downto 0)) return std_logic_vector;
  function ehdl_udiv(a : std_logic_vector; b : std_logic_vector) return std_logic_vector;
  function ehdl_urem(a : std_logic_vector; b : std_logic_vector) return std_logic_vector;
end package ehdl_pkg;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

-- dual-clock FIFO decoupling the pipeline from the shell (§4.5);
-- the single-clock RTL model binds it to a pass-through primitive.
entity ehdl_async_fifo is
  generic (G_WIDTH : integer := 577);
  port (
    wr_clk  : in  std_logic;
    rd_clk  : in  std_logic;
    rst     : in  std_logic;
    wr_en   : in  std_logic;
    wr_data : in  std_logic_vector(576 downto 0);
    rd_en   : in  std_logic;
    rd_data : out std_logic_vector(576 downto 0);
    empty   : out std_logic;
    full    : out std_logic
  );
end entity ehdl_async_fifo;

architecture behavioral of ehdl_async_fifo is
begin
  -- vendor dual-clock FIFO macro (simulation primitive)
end architecture behavioral;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

-- eHDL map block for fd 1 (stats, array)
--   channels: 1  WAR buffer depth: 0  flush blocks: 0  atomic port: yes
entity toy_counter_map_1 is
  generic (G_FD : integer := 1; G_DEPTH : integer := 4; G_KEY_BYTES : integer := 4; G_VALUE_BYTES : integer := 8; G_MAP_TYPE : string := "array");
  port (
    clk : in  std_logic;
    rst : in  std_logic;
    ch0_req   : in  std_logic;
    ch0_op    : in  std_logic_vector(7 downto 0);
    ch0_addr  : in  std_logic_vector(63 downto 0);
    ch0_key   : in  std_logic_vector(31 downto 0);
    ch0_wdata : in  std_logic_vector(63 downto 0);
    ch0_rdata : out std_logic_vector(63 downto 0);
    ch0_oob   : out std_logic;
    at_req      : in  std_logic;
    at_op       : in  std_logic_vector(7 downto 0);
    at_size     : in  std_logic_vector(3 downto 0);
    at_addr     : in  std_logic_vector(63 downto 0);
    at_wdata    : in  std_logic_vector(63 downto 0);
    at_expected : in  std_logic_vector(63 downto 0);
    at_old      : out std_logic_vector(63 downto 0);
    at_oob      : out std_logic;
    host_req   : in  std_logic;  -- userspace eBPF map interface
    host_wr    : in  std_logic;
    host_addr  : in  std_logic_vector(31 downto 0);
    host_wdata : in  std_logic_vector(63 downto 0);
    host_rdata : out std_logic_vector(63 downto 0)
  );
end entity toy_counter_map_1;

architecture behavioral of toy_counter_map_1 is
begin
  -- BRAM + WAR delay chain (0 slots) + 0 Flush Evaluation Blocks (Figs. 6-7);
  -- bound to the repro.rtl simulation primitive backed by the
  -- shared MapSet.
end architecture behavioral;

-- stage 1: r3 = 0 | r2 = *(u8 *)(r1 + 12) | r1 = *(u8 *)(r1 + 13)
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_001 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(640 downto 0);
    state_out  : out std_logic_vector(768 downto 0)
  );
end entity toy_counter_stage_001;

architecture rtl of toy_counter_stage_001 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= state_in(640 downto 577);  -- carry r1
        state_out(704 downto 641) <= (others => '0');  -- r2 defined here
        state_out(768 downto 705) <= (others => '0');  -- r3 defined here
        -- b0: r3 = 0
        if valid_in = '1' and enable_in(0) = '1' and state_in(544) = '0' then
          state_out(768 downto 705) <= x"0000000000000000";
        end if;
        -- b0: r2 = *(u8 *)(r1 + 12)
        if valid_in = '1' and enable_in(0) = '1' and state_in(544) = '0' then
          if unsigned(state_in(527 downto 512)) < to_unsigned(13, 16) then
            state_out(544) <= '1';
            state_out(576 downto 545) <= x"00000001";
          else
            state_out(704 downto 641) <= std_logic_vector(resize(unsigned(state_in(103 downto 96)), 64));
          end if;
        end if;
        -- b0: r1 = *(u8 *)(r1 + 13)
        if valid_in = '1' and enable_in(0) = '1' and state_in(544) = '0' and not (unsigned(state_in(527 downto 512)) < to_unsigned(13, 16)) then
          if unsigned(state_in(527 downto 512)) < to_unsigned(14, 16) then
            state_out(544) <= '1';
            state_out(576 downto 545) <= x"00000001";
          else
            state_out(640 downto 577) <= std_logic_vector(resize(unsigned(state_in(111 downto 104)), 64));
          end if;
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 2: *(u32 *)(r10 - 4) = r3 | r1 <<= 8 | r1 |= r2
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_002 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(768 downto 0);
    state_out  : out std_logic_vector(672 downto 0)
  );
end entity toy_counter_stage_002;

architecture rtl of toy_counter_stage_002 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= state_in(640 downto 577);  -- carry r1
        state_out(672 downto 641) <= (others => '0');
        -- b0: *(u32 *)(r10 - 4) = r3
        if valid_in = '1' and enable_in(0) = '1' and state_in(544) = '0' then
          state_out(672 downto 641) <= std_logic_vector(resize(unsigned(state_in(768 downto 705)), 32));
        end if;
        -- b0: r1 <<= 8
        if valid_in = '1' and enable_in(0) = '1' and state_in(544) = '0' then
          state_out(640 downto 577) <= std_logic_vector(shift_left(unsigned(state_in(640 downto 577)), to_integer(resize(unsigned(x"0000000000000008"), 6))));
        end if;
        -- b0: r1 |= r2
        if valid_in = '1' and enable_in(0) = '1' and state_in(544) = '0' then
          state_out(640 downto 577) <= std_logic_vector(unsigned((std_logic_vector(shift_left(unsigned(state_in(640 downto 577)), to_integer(resize(unsigned(x"0000000000000008"), 6)))))) or unsigned(state_in(704 downto 641)));
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 3: if r1 == 34525 goto +4
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_003 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(672 downto 0);
    state_out  : out std_logic_vector(672 downto 0)
  );
end entity toy_counter_stage_003;

architecture rtl of toy_counter_stage_003 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= state_in(640 downto 577);  -- carry r1
        state_out(672 downto 641) <= state_in(672 downto 641);
        -- b0: if r1 == 34525 goto +4
        if valid_in = '1' and enable_in(0) = '1' and state_in(544) = '0' then
          if unsigned(state_in(640 downto 577)) = unsigned(x"00000000000086dd") then
            enable_out(4) <= '1';
          else
            enable_out(1) <= '1';
          end if;
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 4: if r1 == 2054 goto +5 | r1 = 2 | goto +1
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_004 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(672 downto 0);
    state_out  : out std_logic_vector(672 downto 0)
  );
end entity toy_counter_stage_004;

architecture rtl of toy_counter_stage_004 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= state_in(640 downto 577);  -- carry r1
        state_out(672 downto 641) <= state_in(672 downto 641);
        -- b1: if r1 == 2054 goto +5
        if valid_in = '1' and enable_in(1) = '1' and state_in(544) = '0' then
          if unsigned(state_in(640 downto 577)) = unsigned(x"0000000000000806") then
            enable_out(5) <= '1';
          else
            enable_out(2) <= '1';
          end if;
        end if;
        -- b4: r1 = 2
        if valid_in = '1' and enable_in(4) = '1' and state_in(544) = '0' then
          state_out(640 downto 577) <= x"0000000000000002";
        end if;
        -- b4: goto +1
        if valid_in = '1' and enable_in(4) = '1' and state_in(544) = '0' then
          enable_out(6) <= '1';
          enable_out(6) <= '1';
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 5: if r1 != 2048 goto +6 | r1 = 3
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_005 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(672 downto 0);
    state_out  : out std_logic_vector(672 downto 0)
  );
end entity toy_counter_stage_005;

architecture rtl of toy_counter_stage_005 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= state_in(640 downto 577);  -- carry r1
        state_out(672 downto 641) <= state_in(672 downto 641);
        -- b2: if r1 != 2048 goto +6
        if valid_in = '1' and enable_in(2) = '1' and state_in(544) = '0' then
          if unsigned(state_in(640 downto 577)) /= unsigned(x"0000000000000800") then
            enable_out(7) <= '1';
          else
            enable_out(3) <= '1';
          end if;
        end if;
        -- b5: r1 = 3
        if valid_in = '1' and enable_in(5) = '1' and state_in(544) = '0' then
          state_out(640 downto 577) <= x"0000000000000003";
          enable_out(6) <= '1';
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 6: r1 = 1 | goto +3
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_006 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(672 downto 0);
    state_out  : out std_logic_vector(672 downto 0)
  );
end entity toy_counter_stage_006;

architecture rtl of toy_counter_stage_006 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= state_in(640 downto 577);  -- carry r1
        state_out(672 downto 641) <= state_in(672 downto 641);
        -- b3: r1 = 1
        if valid_in = '1' and enable_in(3) = '1' and state_in(544) = '0' then
          state_out(640 downto 577) <= x"0000000000000001";
        end if;
        -- b3: goto +3
        if valid_in = '1' and enable_in(3) = '1' and state_in(544) = '0' then
          enable_out(6) <= '1';
          enable_out(6) <= '1';
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 7: *(u32 *)(r10 - 4) = r1
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_007 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(672 downto 0);
    state_out  : out std_logic_vector(608 downto 0)
  );
end entity toy_counter_stage_007;

architecture rtl of toy_counter_stage_007 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(608 downto 577) <= state_in(672 downto 641);
        -- b6: *(u32 *)(r10 - 4) = r1
        if valid_in = '1' and enable_in(6) = '1' and state_in(544) = '0' then
          state_out(608 downto 577) <= std_logic_vector(resize(unsigned(state_in(640 downto 577)), 32));
          enable_out(7) <= '1';
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 8: r2 = r10 | r2 += -4 | r1 = map[1]
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_008 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(608 downto 0);
    state_out  : out std_logic_vector(736 downto 0)
  );
end entity toy_counter_stage_008;

architecture rtl of toy_counter_stage_008 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= (others => '0');  -- r1 defined here
        state_out(704 downto 641) <= (others => '0');  -- r2 defined here
        state_out(736 downto 705) <= state_in(608 downto 577);
        -- b7: r2 = r10
        if valid_in = '1' and enable_in(7) = '1' and state_in(544) = '0' then
          state_out(704 downto 641) <= x"0000000000200200";
        end if;
        -- b7: r2 += -4
        if valid_in = '1' and enable_in(7) = '1' and state_in(544) = '0' then
          state_out(704 downto 641) <= std_logic_vector(unsigned((x"0000000000200200")) + unsigned(x"fffffffffffffffc"));
        end if;
        -- b7: r1 = map[1]
        if valid_in = '1' and enable_in(7) = '1' and state_in(544) = '0' then
          state_out(640 downto 577) <= x"0000000030000001";
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 9: call 1
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_009 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(736 downto 0);
    state_out  : out std_logic_vector(640 downto 0);
    mp0_req   : out std_logic;
    mp0_op    : out std_logic_vector(7 downto 0);
    mp0_addr  : out std_logic_vector(63 downto 0);
    mp0_key   : out std_logic_vector(31 downto 0);
    mp0_wdata : out std_logic_vector(63 downto 0);
    mp0_rdata : in  std_logic_vector(63 downto 0);
    mp0_oob   : in  std_logic
  );
end entity toy_counter_stage_009;

architecture rtl of toy_counter_stage_009 is
begin
  mp0_req <= '1' when valid_in = '1' and enable_in(7) = '1' and state_in(544) = '0' else '0';
  mp0_op <= x"01";
  mp0_addr <= x"0000000000000000";
  mp0_key <= state_in(736 downto 705);
  mp0_wdata <= (others => '0');
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= (others => '0');  -- r0 defined here
        -- b7: call 1
        if valid_in = '1' and enable_in(7) = '1' and state_in(544) = '0' then
          if mp0_oob = '1' then
            state_out(544) <= '1';
            state_out(576 downto 545) <= x"00000001";
          else
            state_out(640 downto 577) <= mp0_rdata;
          end if;
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 10: (helper_latency)
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_010 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(640 downto 0);
    state_out  : out std_logic_vector(640 downto 0)
  );
end entity toy_counter_stage_010;

architecture rtl of toy_counter_stage_010 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= state_in(640 downto 577);  -- carry r0
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 11: r1 = r0 | r0 = 3
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_011 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(640 downto 0);
    state_out  : out std_logic_vector(704 downto 0)
  );
end entity toy_counter_stage_011;

architecture rtl of toy_counter_stage_011 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= state_in(640 downto 577);  -- carry r0
        state_out(704 downto 641) <= (others => '0');  -- r1 defined here
        -- b7: r1 = r0
        if valid_in = '1' and enable_in(7) = '1' and state_in(544) = '0' then
          state_out(704 downto 641) <= state_in(640 downto 577);
        end if;
        -- b7: r0 = 3
        if valid_in = '1' and enable_in(7) = '1' and state_in(544) = '0' then
          state_out(640 downto 577) <= x"0000000000000003";
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 12: if r1 == 0 goto +2
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_012 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(704 downto 0);
    state_out  : out std_logic_vector(704 downto 0)
  );
end entity toy_counter_stage_012;

architecture rtl of toy_counter_stage_012 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= state_in(640 downto 577);  -- carry r0
        state_out(704 downto 641) <= state_in(704 downto 641);  -- carry r1
        -- b7: if r1 == 0 goto +2
        if valid_in = '1' and enable_in(7) = '1' and state_in(544) = '0' then
          if unsigned(state_in(704 downto 641)) = unsigned(x"0000000000000000") then
            enable_out(9) <= '1';
          else
            enable_out(8) <= '1';
          end if;
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 13: r2 = 1
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_013 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(704 downto 0);
    state_out  : out std_logic_vector(768 downto 0)
  );
end entity toy_counter_stage_013;

architecture rtl of toy_counter_stage_013 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= state_in(640 downto 577);  -- carry r0
        state_out(704 downto 641) <= state_in(704 downto 641);  -- carry r1
        state_out(768 downto 705) <= (others => '0');  -- r2 defined here
        -- b8: r2 = 1
        if valid_in = '1' and enable_in(8) = '1' and state_in(544) = '0' then
          state_out(768 downto 705) <= x"0000000000000001";
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 14: lock *(u64 *)(r1 + 0) += r2
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_014 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(768 downto 0);
    state_out  : out std_logic_vector(640 downto 0);
    ap_req      : out std_logic;
    ap_op       : out std_logic_vector(7 downto 0);
    ap_size     : out std_logic_vector(3 downto 0);
    ap_addr     : out std_logic_vector(63 downto 0);
    ap_wdata    : out std_logic_vector(63 downto 0);
    ap_expected : out std_logic_vector(63 downto 0);
    ap_old      : in  std_logic_vector(63 downto 0);
    ap_oob      : in  std_logic
  );
end entity toy_counter_stage_014;

architecture rtl of toy_counter_stage_014 is
begin
  ap_req <= '1' when valid_in = '1' and enable_in(8) = '1' and state_in(544) = '0' else '0';
  ap_op <= x"00";
  ap_size <= x"8";
  ap_addr <= std_logic_vector(unsigned(state_in(704 downto 641)) + unsigned(x"0000000000000000"));
  ap_wdata <= state_in(768 downto 705);
  ap_expected <= x"0000000000000000";
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        state_out(640 downto 577) <= state_in(640 downto 577);  -- carry r0
        -- b8: lock *(u64 *)(r1 + 0) += r2
        if valid_in = '1' and enable_in(8) = '1' and state_in(544) = '0' then
          if ap_oob = '1' then
            state_out(544) <= '1';
            state_out(576 downto 545) <= x"00000001";
          else
            enable_out(9) <= '1';
          end if;
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- stage 15: exit
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity toy_counter_stage_015 is
  port (
    clk        : in  std_logic;
    rst        : in  std_logic;
    flush      : in  std_logic;
    valid_in   : in  std_logic;
    valid_out  : out std_logic;
    enable_in  : in  std_logic_vector(31 downto 0);
    enable_out : out std_logic_vector(31 downto 0);
    state_in   : in  std_logic_vector(640 downto 0);
    state_out  : out std_logic_vector(576 downto 0)
  );
end entity toy_counter_stage_015;

architecture rtl of toy_counter_stage_015 is
begin
  process(clk)
  begin
    if rising_edge(clk) then
      if rst = '1' or flush = '1' then
        valid_out <= '0';
      else
        valid_out <= valid_in;
        enable_out <= enable_in;  -- predication fan-through
        state_out(511 downto 0) <= state_in(511 downto 0);
        state_out(527 downto 512) <= state_in(527 downto 512);
        state_out(543 downto 528) <= state_in(543 downto 528);
        state_out(544) <= state_in(544);
        state_out(576 downto 545) <= state_in(576 downto 545);
        -- b9: exit
        if valid_in = '1' and enable_in(9) = '1' and state_in(544) = '0' then
          state_out(544) <= '1';
          state_out(576 downto 545) <= std_logic_vector(resize(unsigned(state_in(640 downto 577)), 32));
        end if;
      end if;
    end if;
  end process;
end architecture rtl;

-- top-level pipeline wrapper (15 stages)
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use work.ehdl_pkg.all;

entity ehdl_toy_counter is
  port (
    pipe_clk      : in  std_logic;
    shell_clk     : in  std_logic;
    rst           : in  std_logic;
    s_axis_tdata  : in  std_logic_vector(511 downto 0);
    s_axis_tlen   : in  std_logic_vector(15 downto 0);
    s_axis_tvalid : in  std_logic;
    s_axis_tlast  : in  std_logic;
    s_axis_tready : out std_logic;
    m_axis_tdata  : out std_logic_vector(511 downto 0);
    m_axis_tlen   : out std_logic_vector(15 downto 0);
    m_axis_tverdict : out std_logic_vector(31 downto 0);
    m_axis_tvalid : out std_logic;
    m_axis_tlast  : out std_logic;
    m_axis_tready : in  std_logic
  );
end entity ehdl_toy_counter;

architecture rtl of ehdl_toy_counter is
  signal tie_one : std_logic;
  signal tie_zero : std_logic;
  signal tie_addr : std_logic_vector(31 downto 0);
  signal fifo_in_bus : std_logic_vector(576 downto 0);
  signal fifo_in_q : std_logic_vector(576 downto 0);
  signal fifo_in_empty : std_logic;
  signal fifo_in_full : std_logic;
  signal inj_frame : std_logic_vector(511 downto 0);
  signal inj_tlen : std_logic_vector(15 downto 0);
  signal inj_done : std_logic;
  signal inj_verdict : std_logic_vector(31 downto 0);
  signal pkt_window : std_logic_vector(511 downto 0);
  signal v0 : std_logic;
  signal e0 : std_logic_vector(31 downto 0);
  signal st0 : std_logic_vector(640 downto 0);
  signal v1 : std_logic;
  signal e1 : std_logic_vector(31 downto 0);
  signal st1 : std_logic_vector(768 downto 0);
  signal v2 : std_logic;
  signal e2 : std_logic_vector(31 downto 0);
  signal st2 : std_logic_vector(672 downto 0);
  signal v3 : std_logic;
  signal e3 : std_logic_vector(31 downto 0);
  signal st3 : std_logic_vector(672 downto 0);
  signal v4 : std_logic;
  signal e4 : std_logic_vector(31 downto 0);
  signal st4 : std_logic_vector(672 downto 0);
  signal v5 : std_logic;
  signal e5 : std_logic_vector(31 downto 0);
  signal st5 : std_logic_vector(672 downto 0);
  signal v6 : std_logic;
  signal e6 : std_logic_vector(31 downto 0);
  signal st6 : std_logic_vector(672 downto 0);
  signal v7 : std_logic;
  signal e7 : std_logic_vector(31 downto 0);
  signal st7 : std_logic_vector(608 downto 0);
  signal v8 : std_logic;
  signal e8 : std_logic_vector(31 downto 0);
  signal st8 : std_logic_vector(736 downto 0);
  signal v9 : std_logic;
  signal e9 : std_logic_vector(31 downto 0);
  signal st9 : std_logic_vector(640 downto 0);
  signal v10 : std_logic;
  signal e10 : std_logic_vector(31 downto 0);
  signal st10 : std_logic_vector(640 downto 0);
  signal v11 : std_logic;
  signal e11 : std_logic_vector(31 downto 0);
  signal st11 : std_logic_vector(704 downto 0);
  signal v12 : std_logic;
  signal e12 : std_logic_vector(31 downto 0);
  signal st12 : std_logic_vector(704 downto 0);
  signal v13 : std_logic;
  signal e13 : std_logic_vector(31 downto 0);
  signal st13 : std_logic_vector(768 downto 0);
  signal v14 : std_logic;
  signal e14 : std_logic_vector(31 downto 0);
  signal st14 : std_logic_vector(640 downto 0);
  signal v15 : std_logic;
  signal e15 : std_logic_vector(31 downto 0);
  signal st15 : std_logic_vector(576 downto 0);
  signal flush_sig : std_logic;
  signal s9_mp0_req : std_logic;
  signal s9_mp0_op : std_logic_vector(7 downto 0);
  signal s9_mp0_addr : std_logic_vector(63 downto 0);
  signal s9_mp0_key : std_logic_vector(31 downto 0);
  signal s9_mp0_wdata : std_logic_vector(63 downto 0);
  signal s14_ap_req : std_logic;
  signal s14_ap_op : std_logic_vector(7 downto 0);
  signal s14_ap_size : std_logic_vector(3 downto 0);
  signal s14_ap_addr : std_logic_vector(63 downto 0);
  signal s14_ap_wdata : std_logic_vector(63 downto 0);
  signal s14_ap_expected : std_logic_vector(63 downto 0);
  signal m1_ch0_req : std_logic;
  signal m1_ch0_op : std_logic_vector(7 downto 0);
  signal m1_ch0_addr : std_logic_vector(63 downto 0);
  signal m1_ch0_key : std_logic_vector(31 downto 0);
  signal m1_ch0_wdata : std_logic_vector(63 downto 0);
  signal m1_ch0_rdata : std_logic_vector(63 downto 0);
  signal m1_ch0_oob : std_logic;
  signal m1_at_req : std_logic;
  signal m1_at_op : std_logic_vector(7 downto 0);
  signal m1_at_size : std_logic_vector(3 downto 0);
  signal m1_at_addr : std_logic_vector(63 downto 0);
  signal m1_at_wdata : std_logic_vector(63 downto 0);
  signal m1_at_expected : std_logic_vector(63 downto 0);
  signal m1_at_old : std_logic_vector(63 downto 0);
  signal m1_at_oob : std_logic;
  signal m1_host_wdata : std_logic_vector(63 downto 0);
  signal m1_host_rdata : std_logic_vector(63 downto 0);
  signal fifo_out_bus : std_logic_vector(576 downto 0);
  signal fifo_out_q : std_logic_vector(576 downto 0);
  signal fifo_out_empty : std_logic;
  signal fifo_out_full : std_logic;
begin
  tie_one <= '1';
  tie_zero <= '0';
  tie_addr <= (others => '0');
  s_axis_tready <= '1';
  fifo_in_bus(527 downto 0) <= s_axis_tdata & s_axis_tlen;
  fifo_in_bus(576 downto 528) <= (others => '0');
  input_fifo : entity work.ehdl_async_fifo port map (
    wr_clk => shell_clk, rd_clk => pipe_clk, rst => rst,
    wr_en => s_axis_tvalid, wr_data => fifo_in_bus,
    rd_en => tie_one, rd_data => fifo_in_q,
    empty => fifo_in_empty, full => fifo_in_full);
  inj_frame <= fifo_in_q(527 downto 16);
  inj_tlen <= fifo_in_q(15 downto 0);
  inj_done <= '1' when unsigned(inj_tlen) < to_unsigned(14, 16) else '0';
  inj_verdict <= x"00000001" when unsigned(inj_tlen) < to_unsigned(14, 16) else x"00000000";
  v0 <= not fifo_in_empty;
  e0 <= x"00000001";
  st0(511 downto 0) <= inj_frame(511 downto 0);
  st0(527 downto 512) <= inj_tlen;
  st0(543 downto 528) <= x"0000";
  st0(544) <= inj_done;
  st0(576 downto 545) <= inj_verdict;
  st0(640 downto 577) <= std_logic_vector(resize(unsigned(x"00100100"), 64));
  process(pipe_clk)
  begin
    if rising_edge(pipe_clk) then
      if v0 = '1' then
        pkt_window <= inj_frame;  -- frame bus for later joins
      end if;
    end if;
  end process;
  m1_host_wdata <= (others => '0');
  s001 : entity work.toy_counter_stage_001 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v0,
    valid_out => v1,
    enable_in => e0,
    enable_out => e1,
    state_in => st0,
    state_out => st1);
  s002 : entity work.toy_counter_stage_002 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v1,
    valid_out => v2,
    enable_in => e1,
    enable_out => e2,
    state_in => st1,
    state_out => st2);
  s003 : entity work.toy_counter_stage_003 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v2,
    valid_out => v3,
    enable_in => e2,
    enable_out => e3,
    state_in => st2,
    state_out => st3);
  s004 : entity work.toy_counter_stage_004 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v3,
    valid_out => v4,
    enable_in => e3,
    enable_out => e4,
    state_in => st3,
    state_out => st4);
  s005 : entity work.toy_counter_stage_005 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v4,
    valid_out => v5,
    enable_in => e4,
    enable_out => e5,
    state_in => st4,
    state_out => st5);
  s006 : entity work.toy_counter_stage_006 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v5,
    valid_out => v6,
    enable_in => e5,
    enable_out => e6,
    state_in => st5,
    state_out => st6);
  s007 : entity work.toy_counter_stage_007 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v6,
    valid_out => v7,
    enable_in => e6,
    enable_out => e7,
    state_in => st6,
    state_out => st7);
  s008 : entity work.toy_counter_stage_008 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v7,
    valid_out => v8,
    enable_in => e7,
    enable_out => e8,
    state_in => st7,
    state_out => st8);
  s009 : entity work.toy_counter_stage_009 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v8,
    valid_out => v9,
    enable_in => e8,
    enable_out => e9,
    state_in => st8,
    state_out => st9,
    mp0_req => s9_mp0_req,
    mp0_op => s9_mp0_op,
    mp0_addr => s9_mp0_addr,
    mp0_key => s9_mp0_key,
    mp0_wdata => s9_mp0_wdata,
    mp0_rdata => m1_ch0_rdata,
    mp0_oob => m1_ch0_oob);
  s010 : entity work.toy_counter_stage_010 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v9,
    valid_out => v10,
    enable_in => e9,
    enable_out => e10,
    state_in => st9,
    state_out => st10);
  s011 : entity work.toy_counter_stage_011 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v10,
    valid_out => v11,
    enable_in => e10,
    enable_out => e11,
    state_in => st10,
    state_out => st11);
  s012 : entity work.toy_counter_stage_012 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v11,
    valid_out => v12,
    enable_in => e11,
    enable_out => e12,
    state_in => st11,
    state_out => st12);
  s013 : entity work.toy_counter_stage_013 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v12,
    valid_out => v13,
    enable_in => e12,
    enable_out => e13,
    state_in => st12,
    state_out => st13);
  s014 : entity work.toy_counter_stage_014 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v13,
    valid_out => v14,
    enable_in => e13,
    enable_out => e14,
    state_in => st13,
    state_out => st14,
    ap_req => s14_ap_req,
    ap_op => s14_ap_op,
    ap_size => s14_ap_size,
    ap_addr => s14_ap_addr,
    ap_wdata => s14_ap_wdata,
    ap_expected => s14_ap_expected,
    ap_old => m1_at_old,
    ap_oob => m1_at_oob);
  s015 : entity work.toy_counter_stage_015 port map (
    clk => pipe_clk,
    rst => rst,
    flush => flush_sig,
    valid_in => v14,
    valid_out => v15,
    enable_in => e14,
    enable_out => e15,
    state_in => st14,
    state_out => st15);
  m1_ch0_req <= s9_mp0_req;
  m1_ch0_op <= s9_mp0_op when s9_mp0_req = '1' else (others => '0');
  m1_ch0_addr <= s9_mp0_addr when s9_mp0_req = '1' else (others => '0');
  m1_ch0_key <= s9_mp0_key when s9_mp0_req = '1' else (others => '0');
  m1_ch0_wdata <= s9_mp0_wdata when s9_mp0_req = '1' else (others => '0');
  m1_at_req <= s14_ap_req;
  m1_at_op <= s14_ap_op when s14_ap_req = '1' else (others => '0');
  m1_at_size <= s14_ap_size when s14_ap_req = '1' else (others => '0');
  m1_at_addr <= s14_ap_addr when s14_ap_req = '1' else (others => '0');
  m1_at_wdata <= s14_ap_wdata when s14_ap_req = '1' else (others => '0');
  m1_at_expected <= s14_ap_expected when s14_ap_req = '1' else (others => '0');
  m001 : entity work.toy_counter_map_1 port map (
    clk => pipe_clk,
    rst => rst,
    ch0_req => m1_ch0_req,
    ch0_op => m1_ch0_op,
    ch0_addr => m1_ch0_addr,
    ch0_key => m1_ch0_key,
    ch0_wdata => m1_ch0_wdata,
    ch0_rdata => m1_ch0_rdata,
    ch0_oob => m1_ch0_oob,
    at_req => m1_at_req,
    at_op => m1_at_op,
    at_size => m1_at_size,
    at_addr => m1_at_addr,
    at_wdata => m1_at_wdata,
    at_expected => m1_at_expected,
    at_old => m1_at_old,
    at_oob => m1_at_oob,
    host_req => tie_zero,
    host_wr => tie_zero,
    host_addr => tie_addr,
    host_wdata => m1_host_wdata,
    host_rdata => m1_host_rdata);
  flush_sig <= '0';
  fifo_out_bus(576 downto 0) <= st15;
  output_fifo : entity work.ehdl_async_fifo port map (
    wr_clk => pipe_clk, rd_clk => shell_clk, rst => rst,
    wr_en => v15, wr_data => fifo_out_bus,
    rd_en => tie_one, rd_data => fifo_out_q,
    empty => fifo_out_empty, full => fifo_out_full);
  m_axis_tvalid <= not fifo_out_empty;
  m_axis_tdata <= fifo_out_q(511 downto 0);
  m_axis_tlen <= fifo_out_q(527 downto 512);
  m_axis_tlast <= '1';
  m_axis_tverdict <= fifo_out_q(576 downto 545) when fifo_out_q(544) = '1' else x"00000000";
end architecture rtl;

