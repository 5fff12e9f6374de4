#include "dram/dram_config.hh"

#include <bit>

#include "common/check.hh"

namespace morph
{

DramCoord
decodeLine(const DramConfig &config, LineAddr line)
{
    DramCoord coord;
    coord.channel = unsigned(line % config.channels);
    line /= config.channels;
    coord.column = unsigned(line % config.linesPerRow);
    line /= config.linesPerRow;
    coord.bank = unsigned(line % config.banksPerRank);
    line /= config.banksPerRank;
    coord.rank = unsigned(line % config.ranksPerChannel);
    line /= config.ranksPerChannel;
    coord.row = line;
    return coord;
}

LineDecoder::LineDecoder(const DramConfig &config) : config_(config)
{
    MORPH_CHECK(config.channels >= 1 && config.linesPerRow >= 1 &&
                config.banksPerRank >= 1 && config.ranksPerChannel >= 1);
    shifts_ = std::has_single_bit(config.channels) &&
              std::has_single_bit(config.linesPerRow) &&
              std::has_single_bit(config.banksPerRank) &&
              std::has_single_bit(config.ranksPerChannel);
    if (!shifts_)
        return;
    channelMask_ = config.channels - 1;
    columnShift_ = unsigned(std::countr_zero(config.channels));
    columnMask_ = config.linesPerRow - 1;
    bankShift_ = columnShift_ + unsigned(std::countr_zero(config.linesPerRow));
    bankMask_ = config.banksPerRank - 1;
    rankShift_ = bankShift_ + unsigned(std::countr_zero(config.banksPerRank));
    rankMask_ = config.ranksPerChannel - 1;
    rowShift_ =
        rankShift_ + unsigned(std::countr_zero(config.ranksPerChannel));
}

} // namespace morph
