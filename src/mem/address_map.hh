/**
 * @file
 * Physical address to DRAM coordinate mapping.
 *
 * Default policy is RoBaRaCoCh (row : bank : rank : column : bank-group :
 * channel from MSB to LSB above the line offset): consecutive 64B lines
 * interleave across channels first, then across bank groups (so streams
 * pace CAS commands at tCCD_S, not tCCD_L), then across the columns of a
 * row — an ORAM bucket's slots spread over all channels and still enjoy
 * row-buffer locality within each bank.
 */

#ifndef PALERMO_MEM_ADDRESS_MAP_HH
#define PALERMO_MEM_ADDRESS_MAP_HH

#include <cstdint>

#include "common/types.hh"

namespace palermo {

/** DRAM organization (geometry) parameters. */
struct DramOrg
{
    unsigned channels = 4;
    unsigned ranks = 1;
    unsigned bankGroups = 4;
    unsigned banksPerGroup = 4;
    unsigned rows = 1u << 16;
    unsigned columnsPerRow = 128; ///< 64B columns per 8KB row

    unsigned banksPerChannel() const
    {
        return ranks * bankGroups * banksPerGroup;
    }

    /** Bank group of a flat bank index (the inverse of
     * DecodedAddr::flatBank's layout). */
    unsigned bankGroupOf(unsigned flat_bank) const
    {
        return flat_bank / banksPerGroup % bankGroups;
    }

    /** Total addressable bytes across all channels. */
    std::uint64_t capacityBytes() const;
};

/** Decoded DRAM coordinates for one 64B line. */
struct DecodedAddr
{
    unsigned channel;
    unsigned rank;
    unsigned bankGroup;
    unsigned bank;      ///< bank within its group
    std::uint64_t row;
    unsigned column;

    /** Flat bank index within the channel. */
    unsigned flatBank(const DramOrg &org) const
    {
        return (rank * org.bankGroups + bankGroup) * org.banksPerGroup
            + bank;
    }
};

/** Interleaving policies. */
enum class MapPolicy
{
    RoBaRaCoCh, ///< row:bank:rank:column:channel (channel-interleaved)
    RoCoBaRaCh, ///< row:column:bank:rank:channel (bank-interleaved lines)
};

/** Address mapper for a given organization and policy. */
class AddressMap
{
  public:
    explicit AddressMap(const DramOrg &org,
                        MapPolicy policy = MapPolicy::RoBaRaCoCh);

    /** Decode a byte address into DRAM coordinates. */
    DecodedAddr decode(Addr addr) const;

    /** Re-encode coordinates into the canonical byte address (inverse). */
    Addr encode(const DecodedAddr &dec) const;


  private:
    DramOrg org_;
    MapPolicy policy_;
};

} // namespace palermo

#endif // PALERMO_MEM_ADDRESS_MAP_HH
